package world

import (
	"bytes"
	"testing"

	"sdsrp/internal/config"
	"sdsrp/internal/fault"
	"sdsrp/internal/msg"
	"sdsrp/internal/obs"
)

// heavyFaults exercises every fault axis at once.
func heavyFaults() fault.Config {
	return fault.Config{
		TransferLossProb:  0.2,
		LinkFlapMeanUp:    40,
		BandwidthJitterLo: 0.5,
		BandwidthJitterHi: 1.0,
		Churn:             fault.Churn{MeanUp: 400, MeanDown: 60, WipeOnReboot: true},
		BlackHoleFraction: 0.1,
		SelfishFraction:   0.1,
	}
}

// TestFaultRunDeterministic: the golden-log property must hold with every
// fault axis live — same seed, byte-identical JSONL; different seed differs.
func TestFaultRunDeterministic(t *testing.T) {
	sc := tinyTracedScenario()
	sc.Faults = heavyFaults()
	a := runTraced(t, sc)
	b := runTraced(t, sc)
	if len(a) == 0 {
		t.Fatal("faulted run produced an empty event log")
	}
	if !bytes.Equal(a, b) {
		t.Fatal("same seed produced different event logs under faults")
	}
	sc.Seed = 8
	c := runTraced(t, sc)
	if bytes.Equal(a, c) {
		t.Fatal("different seeds produced identical faulted logs (suspicious)")
	}
}

// TestZeroIntensityFaultsMatchDisabled: a config that enables the injector
// but injects nothing (bandwidth pinned to exactly 1.0) must be
// byte-identical to running with no fault config at all. This proves the
// fault substream is fully isolated from mobility, traffic, and policy
// randomness.
func TestZeroIntensityFaultsMatchDisabled(t *testing.T) {
	sc := tinyTracedScenario()
	base := runTraced(t, sc)

	sc.Faults = fault.Config{BandwidthJitterLo: 1, BandwidthJitterHi: 1}
	if !sc.Faults.Enabled() {
		t.Fatal("zero-intensity config must still enable the injector")
	}
	zero := runTraced(t, sc)
	if !bytes.Equal(base, zero) {
		t.Fatal("zero-intensity fault injector perturbed the simulation")
	}
}

// TestFaultEventsObservable: a heavy fault run must surface every new event
// type through the tracer, and the loss counter must land in the summary.
func TestFaultEventsObservable(t *testing.T) {
	sc := tinyTracedScenario()
	sc.Duration = 3600
	sc.Faults = heavyFaults()
	metrics := obs.NewMetrics()
	w, err := Build(sc, WithTracer(metrics))
	if err != nil {
		t.Fatal(err)
	}
	res := mustRun(t, w)
	for _, et := range []obs.Type{obs.TransferLost, obs.NodeDown, obs.NodeUp, obs.LinkFlap} {
		if metrics.Count(et) == 0 {
			t.Errorf("no %v events in a heavy fault run", et)
		}
	}
	if res.Lost == 0 {
		t.Error("summary.Lost = 0 under 20% transfer loss")
	}
	if int(metrics.Count(obs.TransferLost)) != res.Lost {
		t.Errorf("transfer_lost events %d != summary.Lost %d",
			metrics.Count(obs.TransferLost), res.Lost)
	}
}

// TestBlackHolesHurtDelivery: seeding a quarter of the fleet as black holes
// must not *improve* delivery, and the run must stay deterministic.
func TestBlackHolesHurtDelivery(t *testing.T) {
	sc := tinyTracedScenario()
	w, err := Build(sc)
	if err != nil {
		t.Fatal(err)
	}
	base := mustRun(t, w)

	sc.Faults = fault.Config{BlackHoleFraction: 0.25}
	w2, err := Build(sc)
	if err != nil {
		t.Fatal(err)
	}
	hole := mustRun(t, w2)
	if hole.Delivered > base.Delivered {
		t.Errorf("black holes improved delivery: %d > %d", hole.Delivered, base.Delivered)
	}
	if hole.Lost == 0 {
		t.Error("no transfers swallowed despite 3 black holes")
	}
}

// TestChurnGroupScoping: churn restricted to a named group must only take
// down nodes from that group.
func TestChurnGroupScoping(t *testing.T) {
	sc := tinyTracedScenario()
	sc.Groups = []config.Group{
		{Name: "fragile", Count: 4, Mobility: sc.Mobility},
		{Name: "solid", Count: 8, Mobility: sc.Mobility},
	}
	sc.Faults = fault.Config{
		Churn: fault.Churn{MeanUp: 200, MeanDown: 100, Groups: []string{"fragile"}},
	}
	ring := obs.NewRing(4096)
	w, err := Build(sc, WithTracer(ring))
	if err != nil {
		t.Fatal(err)
	}
	mustRun(t, w)
	var downs int
	for _, ev := range ring.Events() {
		if ev.Type == obs.NodeDown || ev.Type == obs.NodeUp {
			downs++
			if ev.Node >= 4 {
				t.Fatalf("node %d churned outside the fragile group", ev.Node)
			}
		}
	}
	if downs == 0 {
		t.Fatal("no churn events for the fragile group")
	}
}

// sweepProbe is a tracer that follows churn state and records every commit
// (forward or delivery) of a message at or past its expiry.
type sweepProbe struct {
	ttl     float64
	created map[msg.ID]float64
	down    map[int]bool
	late    []obs.Event
}

func (p *sweepProbe) Emit(e obs.Event) {
	switch e.Type {
	case obs.MessageCreated:
		p.created[e.Msg] = e.T
	case obs.NodeDown:
		p.down[e.Node] = true
	case obs.NodeUp:
		p.down[e.Node] = false
	case obs.MessageForwarded, obs.MessageDelivered:
		if e.T >= p.created[e.Msg]+p.ttl {
			p.late = append(p.late, e)
		}
	}
}

// TestExpirySweepIsComplete checks the invariant DropTable.Forget relies on
// to be O(1): once an expiry sweep has run, no host — down hosts included —
// holds a message whose Expiry() <= now, and no transfer of an expired
// message ever commits. So an expired id is never stored, scored or offered
// again, and nobody queries the drop tables about it.
func TestExpirySweepIsComplete(t *testing.T) {
	sc := tinyTracedScenario()
	sc.Duration = 3600
	sc.TTL = 300                 // short enough that hundreds of copies expire
	sc.BufferBytes = 2000 * 1000 // and roomy enough that they live until then
	sc.Faults = heavyFaults()
	probe := &sweepProbe{ttl: sc.TTL, created: map[msg.ID]float64{}, down: map[int]bool{}}
	w, err := Build(sc, WithTracer(probe))
	if err != nil {
		t.Fatal(err)
	}
	// Registered after Build, so at every sweep instant this ticker runs
	// right after the world's own sweep.
	sweeps, downHolding := 0, 0
	w.Engine.Every(sc.ExpiryInterval, func(now float64) {
		sweeps++
		for _, h := range w.Hosts {
			for _, s := range h.Buffer().Items() {
				if s.M.Expiry() <= now {
					t.Fatalf("t=%v: host %d still holds message %d, expired at %v",
						now, h.ID(), s.M.ID, s.M.Expiry())
				}
			}
			if probe.down[h.ID()] && h.Buffer().Len() > 0 {
				downHolding++
			}
		}
	})
	res := mustRun(t, w)
	for _, e := range probe.late {
		t.Errorf("t=%v: %v of message %d from %d to %d after its expiry", e.T, e.Type, e.Msg, e.Node, e.Peer)
	}
	if sweeps == 0 || res.ExpiredDrops == 0 {
		t.Fatalf("%d sweeps, %d expiries: the run never exercised expiry", sweeps, res.ExpiredDrops)
	}
	if downHolding == 0 {
		t.Fatal("no sweep found a down host holding messages; churn coverage is missing")
	}
}
