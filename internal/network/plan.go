package network

import "fmt"

// ContactPlan is one run's recorded contact schedule: every link transition
// its scanner made, tick by tick, so that a run with the same motion can
// apply the same transitions without scanning (Config.RecordPlan,
// Config.ReplayPlan).
//
// Replay is exact because every scanner applies a tick in one fixed order:
// the downs collectDowns returns, in key order; then the ups, in emission
// order; then finishScan's kicks. The plan stores exactly those calls,
// tagged with their scan tick, and a replaying Manager makes the same
// linkDown, linkUp and finishScan calls on the same tick, so everything the
// transfer layer does on top (and every event it emits) is unchanged. That
// holds only while the link set depends on positions alone, so NewManager
// refuses a plan under the battery model, churn or link flapping, which
// couple links to transfers or to fault draws outside the scan.
//
// A plan is written by one recording run and read-only afterwards, so any
// number of replaying runs may share it, concurrently too.
type ContactPlan struct {
	nodes int
	// keys holds each recorded tick's transitions back to back: its downs
	// in key order, then its ups in emission order.
	keys []pairKey
	// ticks indexes keys: one entry per scan tick that had a transition.
	ticks []planTick
	// horizon is the number of scan ticks the recording run completed.
	horizon int64
	// downs counts the open tick's downs while recording.
	downs int32
}

// planTick locates one scan tick's transitions in ContactPlan.keys: they
// span from the previous entry's end to end, downs first.
type planTick struct {
	tick  int64
	downs int32
	end   int32
}

// recordDowns appends the open tick's downs, in the key order collectDowns
// returns them.
func (p *ContactPlan) recordDowns(downs []*link) {
	for _, l := range downs {
		p.keys = append(p.keys, l.key)
	}
	p.downs = int32(len(downs))
}

// recordUp appends one of the open tick's ups, in emission order.
func (p *ContactPlan) recordUp(k pairKey) { p.keys = append(p.keys, k) }

// closeTick ends scan tick tick, indexing its transitions if it had any.
func (p *ContactPlan) closeTick(tick int64) {
	var start int32
	if n := len(p.ticks); n > 0 {
		start = p.ticks[n-1].end
	}
	if end := int32(len(p.keys)); end > start {
		p.ticks = append(p.ticks, planTick{tick: tick, downs: p.downs, end: end})
	}
	p.downs = 0
	p.horizon = tick + 1
}

// checkPlans validates the contact-plan fields of a manager's config.
func (m *Manager) checkPlans() error {
	rec, rep := m.cfg.RecordPlan, m.cfg.ReplayPlan
	switch {
	case rec == nil && rep == nil:
		return nil
	case rec != nil && rep != nil:
		return fmt.Errorf("network: a run cannot both record and replay a contact plan")
	case m.energy != nil || m.faults.ChurnEnabled() || m.faults.FlapEnabled():
		return fmt.Errorf("network: contact plans need links that depend on motion alone (no battery model, churn or link flapping)")
	case rec != nil && (rec.horizon != 0 || len(rec.keys) != 0):
		return fmt.Errorf("network: recording into a non-empty contact plan")
	case rep != nil && rep.nodes != len(m.hosts):
		return fmt.Errorf("network: contact plan recorded for %d nodes, replayed on %d", rep.nodes, len(m.hosts))
	}
	return nil
}

// scanReplay applies the current tick's recorded transitions through the
// calls the recording scanner made, in its order.
func (m *Manager) scanReplay(now float64) {
	p := m.cfg.ReplayPlan
	tick := m.scans - 1
	if tick >= p.horizon {
		//lint:invariant plans are shared only between runs of equal Duration and ScanInterval, so a replaying run's scan ticks end where the recording run's did
		panic(fmt.Sprintf("network: contact plan replayed past its horizon (tick %d of %d)", tick, p.horizon))
	}
	if m.cursor == len(p.ticks) || p.ticks[m.cursor].tick != tick {
		return // no transition this tick
	}
	var start int32
	if m.cursor > 0 {
		start = p.ticks[m.cursor-1].end
	}
	t := p.ticks[m.cursor]
	m.cursor++
	freed := m.freedBuf[:0]
	for _, k := range p.keys[start : start+t.downs] {
		l := m.linkOf(k)
		if l == nil {
			//lint:invariant the replayed link set equals the recorded one tick by tick, so every recorded down finds its link
			panic(fmt.Sprintf("network: contact plan tears down link %v, which is not up at tick %d", k, tick))
		}
		freed = m.linkDown(l, now, freed)
	}
	for _, k := range p.keys[start+t.downs : t.end] {
		if m.linkOf(k) != nil {
			//lint:invariant the replayed link set equals the recorded one tick by tick, so no recorded up finds its link live
			panic(fmt.Sprintf("network: contact plan brings up link %v, which is already up at tick %d", k, tick))
		}
		m.linkUp(k, now)
	}
	m.finishScan(freed, now)
}
