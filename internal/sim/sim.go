// Package sim implements a deterministic discrete-event simulation engine.
//
// Events are callbacks ordered by (time, sequence number); the sequence
// number makes ties deterministic, so a run is fully reproducible from the
// scenario seed. A single Engine is driven by one goroutine; cross-run
// parallelism lives in internal/experiment, which runs independent engines
// on a worker pool.
//
//lint:shard-safe engine state is per-Engine; the wall-deadline watchdog is the one annotated wall-clock touchpoint and stops dispatch without reordering it
package sim

import (
	"fmt"
	"math"
	"time"

	"sdsrp/internal/eventq"
)

// Handler is an event callback. It runs at its scheduled time with the
// engine clock already advanced.
type Handler func(now float64)

type event struct {
	time     float64
	seq      uint64
	canceled bool
	// gen counts recycles of this pooled object. An EventID snapshots the
	// generation at scheduling time, so a stale handle cannot cancel the
	// unrelated event that later reuses the same allocation.
	gen uint64
	fn  Handler
	// owner backs the engine's live-depth accounting: Cancel tells the
	// owner a queued event went dead. It is nil for control blocks that are
	// never queued (Every's ticker handle).
	owner *Engine
}

// EventID identifies a scheduled event so it can be canceled. The zero
// EventID is invalid.
type EventID struct {
	ev  *event
	gen uint64
}

// Cancel marks the event as canceled; a canceled event is skipped when its
// time comes. Canceling an already-run or already-canceled event is a no-op
// (the generation check makes a handle to a recycled event inert).
func (id EventID) Cancel() {
	if id.ev != nil && id.ev.gen == id.gen && !id.ev.canceled {
		id.ev.canceled = true
		if id.ev.owner != nil {
			id.ev.owner.canceledQueued++
		}
	}
}

// Engine is a discrete-event simulator clock plus pending-event queue.
// Construct with NewEngine. Not safe for concurrent use.
type Engine struct {
	now     float64
	seq     uint64
	queue   *eventq.Queue[*event]
	stopped bool
	// Processed counts events actually dispatched (excluding canceled).
	processed uint64
	// peakQueue is the deepest the pending queue has ever been.
	peakQueue int
	// wall accumulates real time spent inside Run.
	wall time.Duration
	// free is the event free-list: dispatched and canceled events are
	// recycled here instead of being re-allocated, making steady-state
	// scheduling allocation-free. Capacity is bounded by the peak queue
	// depth.
	free []*event
	// canceledQueued counts queued-but-canceled events awaiting reap, so
	// Live can report the true pending depth without walking the heap.
	canceledQueued int
	// maxEvents, when > 0, bounds how many events Run may dispatch in
	// total; the budget guard against a pathological scenario spinning
	// forever. Deterministic: the same scenario always stops at the same
	// event.
	maxEvents uint64
	budgetHit bool
	// deadline, when non-zero, is a wall-clock cutoff checked every
	// deadlineStride dispatches. Unlike the event budget this is
	// inherently non-deterministic (it depends on host speed); it exists
	// for the experiment runner's per-run watchdog, not for simulation
	// semantics.
	deadline    time.Time
	deadlineHit bool
}

// deadlineStride is how many dispatches pass between wall-clock deadline
// checks: rare enough that time.Now stays off the hot path, frequent enough
// that an overdue run stops within milliseconds.
const deadlineStride = 8192

// NewEngine returns an engine with the clock at 0.
func NewEngine() *Engine {
	return &Engine{
		queue: eventq.NewWithCapacity(func(a, b *event) bool {
			if a.time != b.time {
				return a.time < b.time
			}
			return a.seq < b.seq
		}, 1024),
	}
}

// Now returns the current simulation time in seconds.
func (e *Engine) Now() float64 { return e.now }

// Processed returns the number of events dispatched so far.
func (e *Engine) Processed() uint64 { return e.processed }

// PeakQueue returns the maximum pending-event queue depth observed.
func (e *Engine) PeakQueue() int { return e.peakQueue }

// Wall returns the cumulative real time spent inside Run.
func (e *Engine) Wall() time.Duration { return e.wall }

// At schedules fn to run at absolute time t. Scheduling in the past (t <
// Now) panics: it is always a logic error in a discrete-event model.
func (e *Engine) At(t float64, fn Handler) EventID {
	if t < e.now {
		//lint:invariant documented At contract: scheduling in the past is always a logic error in a discrete-event model
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, e.now))
	}
	if math.IsNaN(t) {
		//lint:invariant a NaN deadline would silently vanish in the heap ordering; failing loudly preserves determinism
		panic("sim: scheduling event at NaN time")
	}
	ev := e.alloc()
	ev.time, ev.seq, ev.fn = t, e.seq, fn
	e.seq++
	e.queue.Push(ev)
	if n := e.queue.Len(); n > e.peakQueue {
		e.peakQueue = n
	}
	return EventID{ev, ev.gen}
}

// alloc takes an event from the free-list, falling back to the heap.
func (e *Engine) alloc() *event {
	if n := len(e.free); n > 0 {
		ev := e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
		return ev
	}
	return &event{owner: e}
}

// recycle returns a popped event to the free-list. Bumping the generation
// invalidates every outstanding EventID for it; clearing fn releases the
// closure for GC.
func (e *Engine) recycle(ev *event) {
	ev.gen++
	ev.canceled = false
	ev.fn = nil
	e.free = append(e.free, ev)
}

// After schedules fn to run d seconds from now. d must be ≥ 0.
func (e *Engine) After(d float64, fn Handler) EventID {
	return e.At(e.now+d, fn)
}

// Ticker is the firing schedule of Every: At is one firing and Period the
// ticker's period. Every steps through it, and so does a caller that needs a
// ticker's firings ahead of the engine (the radio's run-ahead contact scan),
// which then sees exactly the times, and the number of firings, that Run
// dispatches.
type Ticker struct {
	At, Period float64
}

// Next returns the firing after t: Period later, as a float sum, so the k-th
// firing of a ticker scheduled at s lands at s+Period+…+Period, not at
// s+k·Period.
func (t Ticker) Next() Ticker {
	t.At += t.Period
	return t
}

// Due reports whether Run(horizon) dispatches the firing: Run leaves every
// event later than its horizon for a later Run.
func (t Ticker) Due(horizon float64) bool { return !(t.At > horizon) }

// Every schedules fn to run now+d, now+2d, ... until the engine stops or the
// returned EventID is canceled. Each firing passes the current time. The
// firing times follow Ticker. d must be > 0.
func (e *Engine) Every(d float64, fn Handler) EventID {
	if d <= 0 {
		//lint:invariant documented Every contract: a non-positive period would loop the clock forever at one instant
		panic("sim: Every requires positive period")
	}
	// ctl carries the cancel flag across re-schedules. It is never queued,
	// so it is never recycled and its generation stays 0 — the returned
	// EventID remains valid for the ticker's whole lifetime.
	ctl := &event{}
	next := Ticker{At: e.now, Period: d}.Next()
	var tick Handler
	tick = func(now float64) {
		if ctl.canceled || e.stopped {
			return
		}
		fn(now)
		if ctl.canceled || e.stopped {
			return
		}
		next = next.Next()
		e.At(next.At, tick)
	}
	e.At(next.At, tick)
	return EventID{ctl, ctl.gen}
}

// Stop halts the run loop after the current event returns.
func (e *Engine) Stop() { e.stopped = true }

// SetMaxEvents bounds the total number of events the engine may dispatch
// across all Run calls; 0 removes the bound. When the budget is exhausted
// Run returns early and BudgetExceeded reports true. The cutoff is a
// function of the event stream alone, so it is as deterministic as the
// simulation itself.
func (e *Engine) SetMaxEvents(n uint64) { e.maxEvents = n }

// BudgetExceeded reports whether a Run stopped because the SetMaxEvents
// budget was exhausted.
func (e *Engine) BudgetExceeded() bool { return e.budgetHit }

// SetWallDeadline arms a wall-clock watchdog: Run returns early once real
// time passes t (checked every few thousand dispatches). The zero time
// disarms it. This is a runner-layer safety net against runaway runs; it is
// NOT deterministic and must never gate simulation semantics.
func (e *Engine) SetWallDeadline(t time.Time) { e.deadline = t }

// DeadlineExceeded reports whether a Run stopped because the SetWallDeadline
// watchdog fired.
func (e *Engine) DeadlineExceeded() bool { return e.deadlineHit }

// Run dispatches events in order until the queue empties, Stop is called,
// the next event is strictly after horizon, the SetMaxEvents budget is
// exhausted, or the SetWallDeadline watchdog fires. The clock finishes at
// min(last event time, horizon); early budget/deadline exits leave it at the
// last dispatched event (query BudgetExceeded / DeadlineExceeded).
func (e *Engine) Run(horizon float64) {
	start := time.Now()
	defer func() { e.wall += time.Since(start) }()
	e.stopped = false
	for {
		if e.stopped {
			return
		}
		ev, ok := e.queue.Peek()
		if !ok {
			if horizon > e.now {
				e.now = horizon
			}
			return
		}
		if ev.time > horizon {
			e.now = horizon
			return
		}
		e.queue.Pop()
		if ev.canceled {
			e.canceledQueued--
			e.recycle(ev)
			continue
		}
		// Capture the payload and recycle before dispatching: the handler
		// may schedule new events, and the freed object can serve them.
		t, fn := ev.time, ev.fn
		e.recycle(ev)
		e.now = t
		e.processed++
		fn(t)
		if e.maxEvents > 0 && e.processed >= e.maxEvents {
			e.budgetHit = true
			return
		}
		//lint:invariant the wall-clock deadline only decides WHEN to stop dispatching; it never reorders, drops, or injects events, so a run that finishes under the deadline is byte-identical to one with no deadline at all
		if !e.deadline.IsZero() && e.processed%deadlineStride == 0 && time.Now().After(e.deadline) {
			e.deadlineHit = true
			return
		}
	}
}

// Pending returns the number of events in the queue, including canceled
// events not yet reaped. Intended for tests and diagnostics.
func (e *Engine) Pending() int { return e.queue.Len() }

// Live returns the number of queued events that will actually dispatch —
// Pending minus canceled events awaiting reap. This is the queue-depth
// signal the observability snapshots record.
func (e *Engine) Live() int { return e.queue.Len() - e.canceledQueued }
