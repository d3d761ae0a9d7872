package network

import "fmt"

// ContactPlan is one run's recorded contact schedule: every link transition
// its scanner made, tick by tick, so that a run with the same motion can
// apply the same transitions without scanning (Config.RecordPlan,
// Config.ReplayPlan).
//
// Replay is exact because every run applies a tick through the same calls
// in one fixed order (applyDowns, applyUps, finishScan): the downs in key
// order, then the ups in emission order, then the kicks. The plan stores
// exactly those transitions, tagged with their scan tick, and a replaying
// Manager makes the same calls on the same tick, so everything the transfer
// layer does on top (and every event it emits) is unchanged. That holds
// only while the link set depends on positions alone, so NewManager refuses
// a plan under the battery model, churn or link flapping, which couple links
// to transfers or to fault draws outside the scan.
//
// The same form carries the run-ahead scan (ahead.go): each chunk of the
// stream is a ContactPlan of its ticks, written by the scanner's goroutine
// and applied by the engine's. A recording is written the same way, ahead of
// the engine, and is read-only once its run has returned, so any number of
// replaying runs may share it, concurrently too.
type ContactPlan struct {
	nodes int
	// keys holds each recorded tick's transitions back to back: its downs
	// in key order, then its ups in emission order.
	keys []pairKey
	// ticks indexes keys: one entry per scan tick that had a transition.
	ticks []planTick
	// horizon is the number of scan ticks the recording run completed.
	horizon int64
}

// planTick locates one scan tick's transitions in ContactPlan.keys: they
// span from the previous entry's end to end, downs first.
type planTick struct {
	tick  int64
	downs int32
	end   int32
}

// add records scan tick tick: its downs, in key order, and its ups, in
// emission order. Ticks come in order, every one of them, transitions or
// not.
func (p *ContactPlan) add(tick int64, downs, ups []pairKey) {
	if len(downs)+len(ups) > 0 {
		p.keys = append(p.keys, downs...)
		p.keys = append(p.keys, ups...)
		p.ticks = append(p.ticks, planTick{tick: tick, downs: int32(len(downs)), end: int32(len(p.keys))})
	}
	p.horizon = tick + 1
}

// reset empties p for reuse, keeping its arrays.
func (p *ContactPlan) reset() {
	p.keys = p.keys[:0]
	p.ticks = p.ticks[:0]
	p.horizon = 0
}

// checkPlans validates the contact-plan fields of a manager's config.
func (m *Manager) checkPlans() error {
	rec, rep := m.cfg.RecordPlan, m.cfg.ReplayPlan
	switch {
	case rec == nil && rep == nil:
		return nil
	case rec != nil && rep != nil:
		return fmt.Errorf("network: a run cannot both record and replay a contact plan")
	case m.coupled():
		return fmt.Errorf("network: contact plans need links that depend on motion alone (no battery model, churn or link flapping)")
	case rec != nil && (rec.horizon != 0 || len(rec.keys) != 0):
		return fmt.Errorf("network: recording into a non-empty contact plan")
	case rep != nil && rep.nodes != len(m.hosts):
		return fmt.Errorf("network: contact plan recorded for %d nodes, replayed on %d", rep.nodes, len(m.hosts))
	}
	return nil
}

// scanReplay applies the recorded transitions of scan tick tick.
func (m *Manager) scanReplay(tick int64, now float64) {
	if p := m.cfg.ReplayPlan; tick >= p.horizon {
		//lint:invariant plans are shared only between runs of equal Duration and ScanInterval, so a replaying run's scan ticks end where the recording run's did
		panic(fmt.Sprintf("network: contact plan replayed past its horizon (tick %d of %d)", tick, p.horizon))
	}
	m.applyPlanned(m.cfg.ReplayPlan, &m.cursor, tick, now)
}

// applyPlanned applies p's transitions of scan tick tick, if it has any;
// *cursor is the index of p's first entry not applied yet, and advances past
// the tick's.
func (m *Manager) applyPlanned(p *ContactPlan, cursor *int, tick int64, now float64) {
	i := *cursor
	if i == len(p.ticks) || p.ticks[i].tick != tick {
		return // no transition this tick
	}
	var start int32
	if i > 0 {
		start = p.ticks[i-1].end
	}
	t := p.ticks[i]
	*cursor = i + 1
	freed := m.applyDowns(p.keys[start:start+t.downs], now)
	m.applyUps(p.keys[start+t.downs:t.end], now)
	m.finishScan(freed, now)
}
