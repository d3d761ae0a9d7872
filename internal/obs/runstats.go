package obs

import "fmt"

// RunStats is the engine-level performance digest of one run: how much work
// the simulator did and how fast the hardware chewed through it. The json
// tags are its keys in the run journal (internal/experiment); ScanFallback
// and Replayed are omitted when zero, so the journal line of a run that
// scanned reads as it did before either field existed.
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
	// evaluations; zero in contact-trace-driven runs, which have no
	// scanner.
	PairsChecked uint64 `json:"pairs_checked"`
	// PairsSkipped, Wakeups and ScanFallback were the work counters and the
	// retirement note of a kinetic scan planner that has been deleted, so
	// no run sets them and String prints none of them. They stay because
	// journals written before hold them and cmd/dtnworkload's traced
	// counters read them.
	PairsSkipped uint64 `json:"pairs_skipped"`
	Wakeups      uint64 `json:"wakeups"`
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

// String formats the digest as the dtnsim perf summary line. The
// pairs-checked counter is appended only when a scanner ran, keeping the
// line stable for scheduled (trace-replay) runs; a run that replayed a
// recorded contact schedule prints scan=replayed in its place.
func (r RunStats) String() string {
	s := fmt.Sprintf("events=%d events/sec=%.0f peak-queue=%d wall=%.3fs sim=%.0fs",
		r.Events, r.EventsPerSec(), r.PeakQueue, r.WallSeconds, r.SimSeconds)
	if r.Replayed {
		s += " scan=replayed"
	} else if r.PairsChecked > 0 {
		s += fmt.Sprintf(" pairs-checked=%d", r.PairsChecked)
	}
	return s
}
