// Package noconcsim exercises the no-conc-sim check: a simulation run is
// single-threaded by design, so goroutines, channels, select, and the sync
// primitives have no business in the sim path. Concurrency lives outside a
// world: the experiment fan-out parallelizes across whole runs under
// Config.ConcAllow, never inside one.
package noconcsim

import (
	"sync"        // want no-conc-sim
	"sync/atomic" // want no-conc-sim
)

// mutexUser exercises the import findings: the imports themselves are the
// diagnostics, not every lock site.
func mutexUser() {
	var mu sync.Mutex
	mu.Lock()
	defer mu.Unlock()
	var c atomic.Int64
	c.Add(1)
}

// spawn starts a goroutine — event flow leaves the deterministic queue.
func spawn(done func()) {
	go done() // want no-conc-sim
}

// sendRecv exercises the channel findings: the type, the send, and the
// receive are each a separate escape hatch from deterministic dispatch.
func sendRecv() int {
	ch := make(chan int, 1) // want no-conc-sim
	ch <- 1                 // want no-conc-sim
	return <-ch             // want no-conc-sim
}

// selector exercises select and the receive inside its comm clause.
func selector(a chan int) int { // want no-conc-sim
	select { // want no-conc-sim
	case v := <-a: // want no-conc-sim
		return v
	default:
		return 0
	}
}

// Suppression forms.

//lint:ignore no-conc-sim fixture demonstrates suppression
func suppressed(ch chan int) {}

// annotated carries the engine-style deliberate exemption.
func annotated(watch func()) {
	//lint:invariant the watcher only observes completed state; it feeds nothing back into the event stream
	go watch()
}
