package experiment

import (
	"fmt"
	"sync"

	"sdsrp/internal/config"
	"sdsrp/internal/network"
	"sdsrp/internal/world"
)

// Contact sharing. A sweep compares policies, buffers, copies or traffic on
// the same mobility per seed, and without a battery or churn the contact
// process depends on motion alone: which pairs the scan finds in range at
// each tick, and the order it reports them, never read a buffer, a message,
// a policy or a link fault. So within one RunScenarios call the runs whose
// scenarios differ only in traffic-only fields form a group: the first run
// of a group records its scan transitions (network.ContactPlan) and the
// others replay them through the same link-layer call, with every event,
// trace byte and result unchanged. Plans live only as long as their group's
// runs: nothing is cached across calls.

// contactKey returns the key under which runs may share sc's contact
// schedule, and false when sc's contacts can depend on more than its motion
// (config.Scenario.MotionOnlyContacts). The key is sc with its traffic-only
// fields cleared. Every other field stays in it, and so does a field added
// later until someone classifies it here: the safe direction.
// TestContactKeyClassifiesEveryField enforces the split.
func contactKey(sc config.Scenario) (string, bool) {
	if !sc.MotionOnlyContacts() {
		return "", false
	}
	// Traffic, buffers, routing and estimators act on messages and
	// transfers, never on which links are up.
	sc.Name = ""
	sc.PolicyName, sc.ProtocolName = "", ""
	sc.BufferBytes = 0
	sc.MessageSize, sc.MessageSizeHi = 0, 0
	sc.TTL, sc.ExpiryInterval = 0, 0
	sc.GenIntervalLo, sc.GenIntervalHi = 0, 0
	sc.InitialCopies = 0
	sc.Bandwidth = 0
	sc.PriorMeanIntermeeting, sc.PriorWeight = 0, 0
	sc.GapLambdaEstimator, sc.OracleRateMean = false, 0
	sc.DisableDropList, sc.UseAcks, sc.PreflightEviction = false, false, false
	sc.MaxEvents, sc.Warmup = 0, 0
	// Fault models that act on links, transfers and roles. Jitter and flap
	// delays are drawn inside linkUp from their own substreams, and replay
	// still calls linkUp; a flap cuts a link, never the scan's contact.
	sc.Faults.TransferLossProb, sc.Faults.LinkFlapMeanUp = 0, 0
	sc.Faults.BandwidthJitterLo, sc.Faults.BandwidthJitterHi = 0, 0
	sc.Faults.BlackHoleFraction, sc.Faults.SelfishFraction = 0, 0
	// %#v prints every field, floats in their shortest exact form; unlike
	// encoding/json it leaves no per-type cache alive after the sweep.
	return fmt.Sprintf("%#v", sc), true
}

// shareGroup is the runs of one RunScenarios call that share a contact key.
type shareGroup struct {
	mu sync.Mutex
	// plan is the published recording; nil until a member reaches its
	// horizon while recording, and again once every member finished.
	plan *network.ContactPlan
	// recording is set while one member's attempt records.
	recording bool
	// left counts members that have not finished yet.
	left int
}

// shareGroups returns each run's group, or nil for a run that cannot share
// its contacts or has no partner left to run: journal hits (skip) never
// run, so they neither record nor count.
func shareGroups(scs []config.Scenario, skip []bool) []*shareGroup {
	groups := make([]*shareGroup, len(scs))
	byKey := make(map[string]*shareGroup)
	for i, sc := range scs {
		if skip[i] {
			continue
		}
		key, ok := contactKey(sc)
		if !ok {
			continue
		}
		g := byKey[key]
		if g == nil {
			g = &shareGroup{}
			byKey[key] = g
		}
		g.left++
		groups[i] = g
	}
	for i, g := range groups {
		if g != nil && g.left < 2 {
			groups[i] = nil
		}
	}
	return groups
}

// claim picks how a member's next attempt gets its contacts: it replays
// the published plan if there is one, records a fresh plan if no other
// attempt is recording, and otherwise scans as an unshared run would,
// without waiting. rec is the plan being recorded, for release.
func (g *shareGroup) claim() (opts []world.BuildOption, rec *network.ContactPlan) {
	if g == nil {
		return nil, nil
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	switch {
	case g.plan != nil:
		return []world.BuildOption{world.ReplayContactPlan(g.plan)}, nil
	case g.recording:
		return nil, nil
	}
	g.recording = true
	rec = &network.ContactPlan{}
	return []world.BuildOption{world.RecordContactPlan(rec)}, rec
}

// release ends an attempt that claim let record. Only an attempt that
// reached its horizon without error (ok) publishes: a budget or timeout
// stop, a panic or a failed build leaves a partial plan, and the next
// attempt of any member records afresh.
func (g *shareGroup) release(rec *network.ContactPlan, ok bool) {
	if rec == nil {
		return
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	g.recording = false
	if ok {
		g.plan = rec
	}
}

// finish marks one member done with all its attempts; the last member
// drops the plan.
func (g *shareGroup) finish() {
	if g == nil {
		return
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.left--; g.left == 0 {
		g.plan = nil
	}
}
