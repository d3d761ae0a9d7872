package obs

import "fmt"

// RunStats is the engine-level performance digest of one run: how much work
// the simulator did and how fast the hardware chewed through it. The json
// tags are its keys in the run journal (internal/experiment); ScanFallback
// and Replayed are omitted when zero, so the line of a run that scanned and
// whose planner held reads as it did before either field existed.
type RunStats struct {
	// SimSeconds is the simulated horizon reached.
	SimSeconds float64 `json:"sim_seconds"`
	// Events counts dispatched (non-canceled) engine events.
	Events uint64 `json:"events"`
	// PeakQueue is the maximum pending-event queue depth observed.
	PeakQueue int `json:"peak_queue"`
	// WallSeconds is the real time spent inside the engine run loop.
	WallSeconds float64 `json:"wall_seconds"`
	// PairsChecked counts the contact scanner's distance-predicate
	// evaluations; PairsSkipped counts work the scan planner proved
	// unnecessary — node-ticks parked by the kinetic planner (always 0
	// under the naive scan); Wakeups counts nodes woken from the planner's
	// wake wheel. All zero in contact-trace-driven runs, which have no
	// scanner. Every production run scans naive, so PairsSkipped and
	// Wakeups are set only where a test forces the kinetic planner; they
	// stay because journals written before hold them and cmd/dtnworkload's
	// traced counters read them.
	PairsChecked uint64 `json:"pairs_checked"`
	PairsSkipped uint64 `json:"pairs_skipped"`
	Wakeups      uint64 `json:"wakeups"`
	// ScanFallback named the retirement of a kinetic planner whose load
	// monitor handed the rest of the run to the naive scan
	// ("kinetic:load-monitor->naive"). The load monitor is gone, so no run
	// sets it; it stays, like PairsSkipped and Wakeups, for the journals
	// that hold it and the traced counters that read it.
	ScanFallback string `json:"scan_fallback,omitempty"`
	// Replayed marks a run whose contacts came from a schedule recorded by
	// a motion-identical run (network.ContactPlan) instead of its own scan.
	// Its scan counters are zero because no scan ran, not because scanning
	// was free.
	Replayed bool `json:"replayed,omitempty"`
}

// EventsPerSec returns the dispatch throughput (0 when no wall time was
// recorded).
func (r RunStats) EventsPerSec() float64 {
	if r.WallSeconds <= 0 {
		return 0
	}
	return float64(r.Events) / r.WallSeconds
}

// String formats the digest as the dtnsim perf summary line. The scan
// counters are appended only when a scanner ran, keeping the line stable
// for scheduled (trace-replay) runs; a run that replayed a recorded contact
// schedule prints scan=replayed in their place.
func (r RunStats) String() string {
	s := fmt.Sprintf("events=%d events/sec=%.0f peak-queue=%d wall=%.3fs sim=%.0fs",
		r.Events, r.EventsPerSec(), r.PeakQueue, r.WallSeconds, r.SimSeconds)
	if r.Replayed {
		s += " scan=replayed"
	} else if r.PairsChecked > 0 || r.PairsSkipped > 0 {
		s += fmt.Sprintf(" pairs-checked=%d pairs-skipped=%d wakeups=%d",
			r.PairsChecked, r.PairsSkipped, r.Wakeups)
	}
	if r.ScanFallback != "" {
		s += " scan-fallback=" + r.ScanFallback
	}
	return s
}
