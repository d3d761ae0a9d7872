package world

import (
	"fmt"

	"sdsrp/internal/msg"
	"sdsrp/internal/obs"
)

// EnableSnapshots schedules a whole-network state sample every interval
// seconds of simulation time, emitted as an obs.Snapshot event through the
// run's tracer (call before Run). The sampler rides the same deterministic
// event stream as lifecycle events, so `dtntrace series` can plot buffer
// occupancy and fill, live copies, active contacts and engine queue depth
// over time from the one JSONL log, next to the created, delivered,
// forwarded and dropped counts it tallies from the events before each
// snapshot. A non-positive interval or a tracer-less world is rejected.
func (w *World) EnableSnapshots(interval float64) error {
	if interval <= 0 {
		return fmt.Errorf("world: snapshot interval must be positive, got %v", interval)
	}
	if w.tracer == nil {
		return fmt.Errorf("world: snapshots need an event sink; build with WithTracer")
	}
	w.Engine.Every(interval, func(now float64) {
		w.tracer.Emit(w.Snapshot(now))
	})
	return nil
}

// Snapshot builds the instantaneous network-state event at time now: live
// message/copy census from the buffers, active link count, live engine
// queue depth, mean buffer fill, and per-node buffer occupancy.
func (w *World) Snapshot(now float64) obs.Event {
	used := make([]int64, len(w.Hosts))
	copies := 0
	distinct := make(map[msg.ID]struct{})
	// Mean fill over hosts with a real byte budget: zero-capacity buffers
	// (and host-less worlds) would otherwise put NaN into the log.
	var fill float64
	counted := 0
	for i, h := range w.Hosts {
		used[i] = h.Buffer().Used()
		if capacity := h.Buffer().Capacity(); capacity > 0 {
			fill += float64(used[i]) / float64(capacity)
			counted++
		}
		items := h.Buffer().Items()
		copies += len(items)
		for _, s := range items {
			distinct[s.M.ID] = struct{}{}
		}
	}
	if counted > 0 {
		fill /= float64(counted)
	}
	return obs.Event{
		T:          now,
		Type:       obs.Snapshot,
		LiveMsgs:   len(distinct),
		LiveCopies: copies,
		Contacts:   w.Manager.ActiveLinks(),
		Queue:      w.Engine.Live(),
		Fill:       fill,
		Used:       used,
	}
}
