package obs

import (
	"bufio"
	"io"
)

// Tracer receives every instrumented event of one simulation run. A run is
// single-threaded, so implementations need no locking. Instrumented code
// calls Emit unconditionally: hosts and the radio require a tracer, and
// world.Build always supplies one (the run's stats.Collector, fanned out
// with any caller sink).
//
// Emit order is part of the determinism contract: callers must emit in the
// engine's deterministic dispatch order (never from a map iteration — see
// dtnlint's ordered-map-emit check), and sinks must preserve arrival order,
// so the same seed yields a byte-identical event stream.
type Tracer interface {
	Emit(Event)
}

// Multi fans events out to every non-nil sink, in argument order. It
// returns nil when no sinks remain, the sink itself when only one remains,
// and a fan-out tracer otherwise.
func Multi(sinks ...Tracer) Tracer {
	live := make([]Tracer, 0, len(sinks))
	for _, s := range sinks {
		if s != nil {
			live = append(live, s)
		}
	}
	switch len(live) {
	case 0:
		return nil
	case 1:
		return live[0]
	default:
		return multi(live)
	}
}

type multi []Tracer

func (m multi) Emit(ev Event) {
	for _, t := range m {
		t.Emit(ev)
	}
}

// JSONL writes one JSON object per event per line. Output is buffered; call
// Flush when the run finishes. Encoding errors are sticky: the first write
// error stops further output and is reported by Flush.
type JSONL struct {
	w   *bufio.Writer
	buf []byte
	err error
}

// NewJSONL returns a JSONL sink writing to w.
func NewJSONL(w io.Writer) *JSONL {
	return &JSONL{w: bufio.NewWriterSize(w, 64<<10), buf: make([]byte, 0, 256)}
}

// Emit implements Tracer.
func (j *JSONL) Emit(ev Event) {
	if j.err != nil {
		return
	}
	j.buf = ev.AppendJSON(j.buf[:0])
	j.buf = append(j.buf, '\n')
	_, j.err = j.w.Write(j.buf)
}

// Flush drains the buffer and returns the first error encountered.
func (j *JSONL) Flush() error {
	if j.err != nil {
		return j.err
	}
	return j.w.Flush()
}

// Ring keeps the most recent events in a fixed-capacity circular buffer —
// the in-memory sink for tests and post-mortem debugging.
type Ring struct {
	evs     []Event
	next    int
	full    bool
	dropped uint64
}

// NewRing returns a ring holding at most capacity events (capacity ≥ 1).
func NewRing(capacity int) *Ring {
	if capacity < 1 {
		capacity = 1
	}
	return &Ring{evs: make([]Event, 0, capacity)}
}

// Emit implements Tracer.
func (r *Ring) Emit(ev Event) {
	if !r.full {
		r.evs = append(r.evs, ev)
		if len(r.evs) == cap(r.evs) {
			r.full = true
		}
		return
	}
	r.dropped++
	r.evs[r.next] = ev
	r.next++
	if r.next == len(r.evs) {
		r.next = 0
	}
}

// Len returns the number of retained events.
func (r *Ring) Len() int { return len(r.evs) }

// Dropped returns how many events were overwritten by newer ones.
func (r *Ring) Dropped() uint64 { return r.dropped }

// Events returns the retained events oldest-first as a fresh slice.
func (r *Ring) Events() []Event {
	out := make([]Event, 0, len(r.evs))
	out = append(out, r.evs[r.next:]...)
	return append(out, r.evs[:r.next]...)
}
