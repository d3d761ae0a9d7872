package obs

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// histMinExp is the smallest power-of-two exponent the histogram resolves:
// bucket 0 collapses everything below 2^histMinExp (≈ 1 µs when observing
// seconds). Sub-unit values — sub-second latencies, fractional drop scores
// in [0,1) — therefore keep factor-of-two resolution instead of quantizing
// to zero.
const histMinExp = -20

// histBuckets spans exponents histMinExp … 64: bucket i (i ≥ 1) holds
// values in [2^(i-1+histMinExp), 2^(i+histMinExp)).
const histBuckets = 64 - histMinExp + 1

// Histogram is a log2-bucketed distribution of non-negative values: cheap
// to feed from a hot path, good enough for order-of-magnitude quantiles of
// transfer sizes, latencies, and drop scores. Resolution is a factor of two
// across the whole range [2^-20, 2^64); values below 2^-20 collapse into
// bucket 0 and quantile-estimate as 0.
type Histogram struct {
	count    uint64
	sum      float64
	min, max float64
	buckets  [histBuckets]uint64
}

// Observe records v. Negative values clamp to 0.
func (h *Histogram) Observe(v float64) {
	if v < 0 {
		v = 0
	}
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	h.count++
	h.sum += v
	h.buckets[bucketOf(v)]++
}

func bucketOf(v float64) int {
	if v <= 0 {
		return 0
	}
	// v = f·2^exp with f ∈ [0.5,1), so v ∈ [2^(exp-1), 2^exp).
	_, exp := math.Frexp(v)
	b := exp - histMinExp
	if b < 0 {
		return 0
	}
	if b >= histBuckets {
		return histBuckets - 1
	}
	return b
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count }

// Sum returns the total of all observations.
func (h *Histogram) Sum() float64 { return h.sum }

// Mean returns the average observation (0 when empty).
func (h *Histogram) Mean() float64 {
	if h.count == 0 {
		return 0
	}
	return h.sum / float64(h.count)
}

// Min returns the smallest observation (0 when empty).
func (h *Histogram) Min() float64 { return h.min }

// Max returns the largest observation (0 when empty).
func (h *Histogram) Max() float64 { return h.max }

// Quantile returns an upper-bound estimate of the q-quantile (q in [0,1]):
// the upper edge of the bucket containing the q-th observation, clamped to
// the observed maximum. Resolution is a factor of two down to 2^-20
// (values below that report as 0) — sufficient for perf triage, not for
// paper metrics.
func (h *Histogram) Quantile(q float64) float64 {
	if h.count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := uint64(math.Ceil(q * float64(h.count)))
	if rank == 0 {
		rank = 1
	}
	var seen uint64
	for i, c := range h.buckets {
		seen += c
		if seen >= rank {
			if i == 0 {
				// Below the 2^histMinExp resolution floor: effectively zero.
				return 0
			}
			if i == histBuckets-1 {
				// Overflow bucket: its nominal edge understates the contents.
				return h.max
			}
			upper := math.Ldexp(1, i+histMinExp) // exclusive bucket upper edge
			if upper > h.max {
				upper = h.max
			}
			return upper
		}
	}
	return h.max
}

// Metrics folds events into a counters/histogram registry: per-type event
// counts, per-host policy-drop counts, transfer-size and delivery-latency
// distributions. It implements Tracer and can run beside a JSONL sink via
// Multi.
type Metrics struct {
	counts [numTypes]uint64
	drops  map[int]uint64

	// TransferBytes observes the payload size of every started transfer.
	TransferBytes Histogram
	// Latency observes the creation-to-delivery delay of every delivery.
	Latency Histogram
	// EvictPriority observes the drop score of every policy eviction.
	EvictPriority Histogram
}

// NewMetrics returns an empty registry.
func NewMetrics() *Metrics {
	return &Metrics{drops: make(map[int]uint64)}
}

// Emit implements Tracer.
func (m *Metrics) Emit(ev Event) {
	if int(ev.Type) < numTypes {
		m.counts[ev.Type]++
	}
	switch ev.Type {
	case MessageDropped:
		m.drops[ev.Node]++
		m.EvictPriority.Observe(ev.Priority)
	case TransferStart:
		m.TransferBytes.Observe(float64(ev.Size))
	case MessageDelivered:
		m.Latency.Observe(ev.Latency)
	}
}

// Count returns how many events of type t were seen.
func (m *Metrics) Count(t Type) uint64 {
	if int(t) >= numTypes {
		return 0
	}
	return m.counts[t]
}

// Total returns the number of events seen across all types.
func (m *Metrics) Total() uint64 {
	var n uint64
	for _, c := range m.counts {
		n += c
	}
	return n
}

// DropsAt returns the policy-drop count at one host.
func (m *Metrics) DropsAt(node int) uint64 { return m.drops[node] }

// DropsByNode returns (node, drops) pairs sorted by node id. The counter
// map's keys are sorted before the samples are built, so the emitted order
// never depends on map iteration.
func (m *Metrics) DropsByNode() []NodeCount {
	nodes := make([]int, 0, len(m.drops))
	for n := range m.drops {
		nodes = append(nodes, n)
	}
	sort.Ints(nodes)
	out := make([]NodeCount, 0, len(nodes))
	for _, n := range nodes {
		out = append(out, NodeCount{Node: n, Count: m.drops[n]})
	}
	return out
}

// NodeCount is one per-host counter sample.
type NodeCount struct {
	Node  int
	Count uint64
}

// String summarizes the registry on one line.
func (m *Metrics) String() string {
	var b strings.Builder
	for t := 0; t < numTypes; t++ {
		if m.counts[t] == 0 {
			continue
		}
		if b.Len() > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%s=%d", Type(t), m.counts[t])
	}
	if b.Len() == 0 {
		return "no events"
	}
	return b.String()
}

// RunStats is the engine-level performance digest of one run: how much work
// the simulator did and how fast the hardware chewed through it.
type RunStats struct {
	// SimSeconds is the simulated horizon reached.
	SimSeconds float64
	// Events counts dispatched (non-canceled) engine events.
	Events uint64
	// PeakQueue is the maximum pending-event queue depth observed.
	PeakQueue int
	// WallSeconds is the real time spent inside the engine run loop.
	WallSeconds float64
	// PairsChecked counts the contact scanner's distance-predicate
	// evaluations; PairsSkipped counts work the scan strategy proved
	// unnecessary — pair-ticks parked in the lazy scanner's wake wheel or
	// permanently retired, or node-ticks parked by the kinetic scanner
	// (always 0 in naive mode); Wakeups counts entries woken from the
	// strategy's wake wheel. All zero in contact-trace-driven runs, which
	// have no scanner.
	PairsChecked uint64
	PairsSkipped uint64
	Wakeups      uint64
	// ScanFallback records every scan-strategy substitution the run made,
	// comma-joined in occurrence order (e.g.
	// "lazy:pair-index-overflow->kinetic"). Empty when the configured
	// strategy ran to completion. Fallbacks never change the event trace —
	// every strategy is byte-identical — only the performance profile.
	ScanFallback string
	// Replayed marks a run whose contacts came from a schedule recorded by
	// a motion-identical run (network.ContactPlan) instead of its own scan.
	// Its scan counters are zero because no scan ran, not because scanning
	// was free.
	Replayed bool
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
