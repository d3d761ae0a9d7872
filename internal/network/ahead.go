package network

import (
	"fmt"
	"runtime/debug"
	//lint:invariant the run-ahead scan below is the one sanctioned in-run concurrency: the scanner goroutine owns motion and the engine goroutine owns links, transfers and events, and they trade only whole chunks of ticks under this mutex
	"sync"

	"sdsrp/internal/sim"
)

// This file runs the scanner ahead of the engine. In a world whose contacts
// depend on motion alone (no battery, churn or contact trace) the contact
// process is a function of the mobility models, which nothing else in the
// run touches, so the scanner can produce tick after tick without waiting
// for the link layer. Link flaps do not stop it: they act on the link layer
// alone (Manager.flapped). RunAhead starts the scanner on a goroutine of its
// own for the length of a Run. It scans the ticks the engine's scan ticker
// will fire (sim.Ticker gives their times and number) into a bounded stream
// of chunks, and the engine's per-tick Scan event applies them in order
// through applyTick, as it applies a lockstep or replayed tick.
//
// The run stays deterministic because nothing flows back: the scanner reads
// only its own state, and the engine reads each tick only after the scanner
// finished it, so every tick's transitions, and everything the link layer
// does on them, are what a lockstep scan produces. The two sides meet only
// when one catches up with the other: the engine waits for a chunk the
// scanner has not finished, the scanner for a chunk the engine has not
// used up. Each tick's pairs-checked count travels with it, so ScanStats
// counts exactly the ticks the engine applied, however far ahead the
// scanner ran.

const (
	// lookahead bounds how far, in scan ticks, the scanner may run past the
	// tick the engine applies: the stream's chunks hold at most this many
	// scanned ticks between them.
	lookahead = 512
	// streamChunks is the number of chunks the stream owns. The scanner
	// fills one while the engine applies another, and a spare chunk is
	// handed over only when one side has used its chunk up.
	streamChunks = 4
	// chunkTicks is how many ticks one chunk carries.
	chunkTicks = lookahead / streamChunks
)

// chunk carries consecutive scan ticks from the scanner to the link layer:
// their transitions, as a ContactPlan, and each tick's pairs checked.
type chunk struct {
	plan ContactPlan
	// first is the tick checked[0] describes; the chunk covers the ticks
	// first … first+len(checked)-1.
	first   int64
	checked []uint64
	// cursor is the link layer's first entry of plan.ticks not applied
	// yet.
	cursor int
}

// reset empties c for the ticks from first on.
func (c *chunk) reset(first int64) {
	c.plan.reset()
	c.first = first
	c.checked = c.checked[:0]
	c.cursor = 0
}

// runAhead is the tick stream of a run-ahead world.
type runAhead struct {
	sc *scanner

	// The scanner's position: the next tick it scans, that tick's firing,
	// and the chunk it is filling. The scanner goroutine owns them while it
	// runs; the engine's goroutine reads them only after it ended.
	next    int64
	at      sim.Ticker
	filling *chunk

	// cur is the chunk the link layer applies from (engine goroutine only).
	cur *chunk

	mu sync.Mutex
	// cond is broadcast whenever ready, spare, quit or running changes.
	cond sync.Cond
	// ready holds filled chunks, oldest first; spare holds chunks the link
	// layer has used up, free to refill.
	ready, spare []*chunk
	// quit asks the scanner to end at its next chunk; running is set while
	// its goroutine has not ended.
	quit, running bool
	// failure is the scanner's panic, re-raised on the engine's goroutine
	// at the tick that raised it.
	failure *scanPanic
}

// newRunAhead returns a stopped stream whose scanner, sc, is at tick next,
// which fires at.
func newRunAhead(sc *scanner, next int64, at sim.Ticker) *runAhead {
	a := &runAhead{sc: sc, next: next, at: at}
	a.cond.L = &a.mu
	for range streamChunks {
		a.spare = append(a.spare, &chunk{checked: make([]uint64, 0, chunkTicks)})
	}
	return a
}

// RunAhead starts the scanner on a goroutine of its own, scanning the ticks
// a Run(horizon) fires ahead of the engine, and returns stop, which ends the
// goroutine: the caller must call it before its own return, on every path,
// panics included. Only a world whose contacts depend on motion alone runs
// ahead; a world with a battery or churn scans in lockstep, a replaying or
// contact-trace world does not scan, and stop is then a no-op. Call after
// Start.
func (m *Manager) RunAhead(horizon float64) (stop func()) {
	if m.scan == nil || m.coupled() || m.next.Period == 0 {
		return func() {}
	}
	if m.ahead == nil {
		m.ahead = newRunAhead(m.scan, m.scans, m.next)
	}
	a := m.ahead
	a.start(horizon)
	return func() {
		a.stop()
		// Once the engine has applied every tick up to the horizon, the
		// stream is done: release its chunks.
		if m.ahead == a && a.next == m.scans && !a.at.Due(horizon) {
			m.ahead = nil
		}
	}
}

// start launches the scanner goroutine toward horizon, unless it has
// nothing left to scan or died.
func (a *runAhead) start(horizon float64) {
	if a.failure != nil || !a.at.Due(horizon) {
		return
	}
	a.running = true
	//lint:invariant the one sanctioned in-run concurrency: the scanner runs ahead on motion alone, which nothing on the engine's goroutine reads or writes, and hands over whole ticks through the stream, so the event order is a lockstep scan's
	go a.produce(horizon)
}

// stop ends the scanner goroutine, letting it finish the chunk it is
// filling, and waits until it has.
func (a *runAhead) stop() {
	a.mu.Lock()
	a.quit = true
	a.cond.Broadcast()
	for a.running {
		a.cond.Wait()
	}
	a.quit = false
	a.mu.Unlock()
}

// produce is the scanner goroutine: it scans tick after tick into chunks
// until the horizon or a quit.
func (a *runAhead) produce(horizon float64) {
	defer a.end()
	for a.at.Due(horizon) {
		c := a.filling
		if c == nil {
			if c = a.acquire(); c == nil {
				return
			}
			c.reset(a.next)
			a.filling = c
		}
		downs, ups := a.sc.tick(a.at.At)
		c.plan.add(a.next, downs, ups)
		c.checked = append(c.checked, a.sc.checked())
		a.next++
		a.at = a.at.Next()
		if len(c.checked) == chunkTicks || !a.at.Due(horizon) {
			a.filling = nil
			a.publish(c)
		}
	}
}

// acquire returns a spare chunk, waiting for the link layer to use one up,
// or nil once quit is set.
func (a *runAhead) acquire() *chunk {
	a.mu.Lock()
	defer a.mu.Unlock()
	for len(a.spare) == 0 && !a.quit {
		a.cond.Wait()
	}
	if a.quit {
		return nil
	}
	c := a.spare[len(a.spare)-1]
	a.spare = a.spare[:len(a.spare)-1]
	return c
}

// publish hands a filled chunk to the link layer.
func (a *runAhead) publish(c *chunk) {
	a.mu.Lock()
	a.ready = append(a.ready, c)
	a.cond.Broadcast()
	a.mu.Unlock()
}

// end marks the scanner goroutine ended. A panic is kept for the engine's
// goroutine, after the ticks the scanner finished before it.
func (a *runAhead) end() {
	r := recover()
	a.mu.Lock()
	defer a.mu.Unlock()
	if r != nil {
		a.failure = &scanPanic{value: r, stack: debug.Stack()}
		if c := a.filling; c != nil && len(c.checked) > 0 {
			a.ready = append(a.ready, c)
		}
		a.filling = nil
	}
	a.running = false
	a.cond.Broadcast()
}

// take returns the chunk holding scan tick tick, waiting while the scanner
// has not finished it, or nil when no scanner will: the stream is drained
// and its goroutine ended, so the caller scans inline. It is nil-safe.
func (a *runAhead) take(tick int64) *chunk {
	if a == nil {
		return nil
	}
	c := a.cur
	if c != nil && tick < c.first+int64(len(c.checked)) {
		return c
	}
	a.mu.Lock()
	if c != nil {
		a.cur = nil
		a.spare = append(a.spare, c)
		a.cond.Broadcast()
	}
	for len(a.ready) == 0 && a.running {
		a.cond.Wait()
	}
	if len(a.ready) == 0 {
		failure := a.failure
		a.mu.Unlock()
		if failure != nil {
			//lint:invariant re-raises, on the engine's goroutine and at the tick that raised it, a panic the scanner raised on its own, as a lockstep scan would have raised it here
			panic(failure)
		}
		return nil
	}
	c = a.ready[0]
	a.ready = append(a.ready[:0], a.ready[1:]...)
	a.mu.Unlock()
	if c.first != tick {
		//lint:invariant the scanner scans the ticks the engine's ticker fires, in order, and the engine applies each once, so the next chunk starts at the engine's tick
		panic(fmt.Sprintf("network: run-ahead chunk starts at tick %d, the engine is at tick %d", c.first, tick))
	}
	a.cur = c
	return c
}

// scanPanic is a panic the scanner raised on its own goroutine: the value it
// panicked with and that goroutine's stack.
type scanPanic struct {
	value any
	stack []byte
}

func (p *scanPanic) String() string {
	return fmt.Sprintf("%v [raised by the run-ahead scanner]\n%s", p.value, p.stack)
}
