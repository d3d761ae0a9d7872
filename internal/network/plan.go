package network

import "fmt"

// ContactPlan is one run's recorded contact schedule: every link transition
// its scanner made, tick by tick, so that a run with the same motion can
// apply the same transitions without scanning (Config.RecordPlan,
// Config.ReplayPlan).
//
// Replay is exact because every run applies a tick through one function,
// applyTick, in one fixed order: the downs in key order, then the ups in
// emission order, then the kicks. The plan stores exactly those
// transitions, tagged with their scan tick, and a replaying Manager applies
// them on the same tick, so everything the link layer does on top (link
// flaps, transfers, and every event they emit) is unchanged. That holds
// only while the scan's contacts depend on positions alone, so NewManager
// refuses a plan under the battery model or churn, which darken radios
// outside the scan. Link flaps act on the link layer alone: a flapping
// world records and replays the same plan as its non-flapping sibling.
//
// The same form carries the run-ahead scan (ahead.go): each chunk of the
// stream is a ContactPlan of its ticks, written by the scanner's goroutine
// and applied by the engine's. A recording is written by applyTick, on the
// engine's goroutine, and is read-only once its run has returned, so any
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
		return fmt.Errorf("network: contact plans need contacts that depend on motion alone (no battery model or churn)")
	case rec != nil && (rec.horizon != 0 || len(rec.keys) != 0):
		return fmt.Errorf("network: recording into a non-empty contact plan")
	case rep != nil && rep.nodes != len(m.hosts):
		return fmt.Errorf("network: contact plan recorded for %d nodes, replayed on %d", rep.nodes, len(m.hosts))
	}
	return nil
}

// at returns p's transitions of scan tick tick, its downs and its ups, both
// empty when the tick had none; *cursor is the index of p's first entry not
// applied yet, and advances past the tick's.
func (p *ContactPlan) at(cursor *int, tick int64) (downs, ups []pairKey) {
	i := *cursor
	if i == len(p.ticks) || p.ticks[i].tick != tick {
		return nil, nil
	}
	var start int32
	if i > 0 {
		start = p.ticks[i-1].end
	}
	t := p.ticks[i]
	*cursor = i + 1
	return p.keys[start : start+t.downs], p.keys[start+t.downs : t.end]
}
