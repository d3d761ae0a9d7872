// Package stats folds a run's event stream into its metrics.
//
// The three headline metrics match the paper's Section IV definitions:
//
//   - delivery ratio: delivered messages / created messages
//   - average hopcounts: mean hops of successfully delivered messages
//   - overhead ratio: (forwards − deliveries) / deliveries
//
// plus auxiliary counters (aborts, refusals, drops) and the intermeeting
// time recorder used to reproduce Fig. 3. Collector and Intermeeting are
// obs.Tracer sinks: they see exactly the lifecycle events the JSONL log
// records, so a run's metrics can always be refolded from its log.
package stats

import (
	"fmt"
	"math"

	"sdsrp/internal/msg"
	"sdsrp/internal/obs"
)

// Collector folds one run's lifecycle events into its counters. world.Build
// attaches one to every run. Not safe for concurrent use; a run is
// single-threaded.
type Collector struct {
	// WarmupUntil excludes messages created before it from the per-message
	// metrics (created count, deliveries, hops, latency). Transfer- and
	// drop-level counters still include warm-up activity; the headline
	// ratios are computed over post-warm-up messages only.
	WarmupUntil float64

	Created  int // messages generated
	Forwards int // successfully completed transfers (including delivery hops)
	Started  int // transfers begun
	Aborted  int // transfers cut by link-down
	Refused  int // transfers declined up-front (dropped-list or overflow preflight)
	Lost     int // transfers completed on the wire but discarded by the receiver

	PolicyDrops  int // buffer-overflow evictions
	ExpiredDrops int // TTL removals
	AckPurges    int // copies purged by the immunization extension

	delivered  map[msg.ID]bool
	excluded   map[msg.ID]bool // warm-up messages, invisible to metrics
	duplicates int             // deliveries of already-delivered messages
	latencies  Sampler         // delivery latencies in delivery order
	// Running sums accumulated in delivery order, so Summarize never
	// depends on map iteration order (float addition is not associative).
	hopSum     int
	latencySum float64
}

// NewCollector returns an empty collector.
func NewCollector() *Collector {
	return &Collector{
		delivered: make(map[msg.ID]bool),
		excluded:  make(map[msg.ID]bool),
	}
}

// Emit implements obs.Tracer. A forward is a committed transfer, a final
// delivery included; only the first delivery of each message counts, later
// ones are tallied as duplicates; a message whose created event falls
// before WarmupUntil is excluded from every per-message metric.
func (c *Collector) Emit(ev obs.Event) {
	switch ev.Type {
	case obs.MessageCreated:
		if ev.T < c.WarmupUntil {
			c.excluded[ev.Msg] = true
			return
		}
		c.Created++
	case obs.MessageForwarded:
		c.Forwards++
	case obs.MessageDelivered:
		c.Forwards++
		c.deliver(ev)
	case obs.MessageDropped:
		c.PolicyDrops++
	case obs.MessageExpired:
		c.ExpiredDrops++
	case obs.MessagePurged:
		if ev.Kind == "ack" {
			c.AckPurges++
		}
	case obs.MessageRefused:
		c.Refused++
	case obs.TransferStart:
		c.Started++
	case obs.TransferAbort:
		c.Aborted++
	case obs.TransferLost:
		c.Lost++
	}
}

// deliver records a delivered event's message, hops and latency.
func (c *Collector) deliver(ev obs.Event) {
	if c.excluded[ev.Msg] {
		return
	}
	if c.delivered[ev.Msg] {
		c.duplicates++
		return
	}
	c.delivered[ev.Msg] = true
	c.hopSum += ev.Hops
	c.latencySum += ev.Latency
	c.latencies.Add(ev.Latency)
}

// Summary is the digest of a finished run. The json tags are its keys in
// the run journal (internal/experiment).
type Summary struct {
	Created       int     `json:"created"`
	Delivered     int     `json:"delivered"`
	Forwards      int     `json:"forwards"`
	Started       int     `json:"started"`
	Aborted       int     `json:"aborted"`
	Refused       int     `json:"refused"`
	Lost          int     `json:"lost"`
	PolicyDrops   int     `json:"policy_drops"`
	ExpiredDrops  int     `json:"expired_drops"`
	AckPurges     int     `json:"ack_purges"`
	Duplicates    int     `json:"duplicates"`
	DeliveryRatio float64 `json:"delivery_ratio"`
	AvgHops       float64 `json:"avg_hops"`
	OverheadRatio float64 `json:"overhead_ratio"`
	AvgLatency    float64 `json:"avg_latency"`
	// MedianLatency and P95Latency summarize the delivery-delay
	// distribution (0 with no deliveries).
	MedianLatency float64 `json:"median_latency"`
	P95Latency    float64 `json:"p95_latency"`
}

// Summarize computes the derived metrics. Ratios involving zero deliveries
// are reported as 0 (delivery, hops, latency) and NaN-free: overhead with
// zero deliveries is reported as +Inf only when forwards occurred, else 0.
func (c *Collector) Summarize() Summary {
	s := Summary{
		Created:      c.Created,
		Delivered:    len(c.delivered),
		Forwards:     c.Forwards,
		Started:      c.Started,
		Aborted:      c.Aborted,
		Refused:      c.Refused,
		Lost:         c.Lost,
		PolicyDrops:  c.PolicyDrops,
		ExpiredDrops: c.ExpiredDrops,
		AckPurges:    c.AckPurges,
		Duplicates:   c.duplicates,
	}
	if c.Created > 0 {
		s.DeliveryRatio = float64(s.Delivered) / float64(c.Created)
	}
	if s.Delivered > 0 {
		s.AvgHops = float64(c.hopSum) / float64(s.Delivered)
		s.AvgLatency = c.latencySum / float64(s.Delivered)
		s.MedianLatency = c.latencies.Percentile(0.5)
		s.P95Latency = c.latencies.Percentile(0.95)
		s.OverheadRatio = float64(c.Forwards-s.Delivered) / float64(s.Delivered)
	} else if c.Forwards > 0 {
		s.OverheadRatio = math.Inf(1)
	}
	return s
}

// Lines renders a run's summary as dtnsim prints it: the contacts line, then
// created, delivered, average hopcounts, overhead ratio, latency, transfers,
// the faults line when transfers were lost, and drops. Each line starts
// with its label padded to 16 columns. dtnsim prints its intermeeting line
// after the first and the rest only when traffic ran; dtntrace stats -check
// renders a log's own fold with Lines and compares line by line.
func Lines(contacts int, s Summary) []string {
	lines := []string{
		fmt.Sprintf("contacts        %d", contacts),
		fmt.Sprintf("created         %d", s.Created),
		fmt.Sprintf("delivered       %d (ratio %.4f)", s.Delivered, s.DeliveryRatio),
		fmt.Sprintf("avg hopcounts   %.3f", s.AvgHops),
		fmt.Sprintf("overhead ratio  %.3f", s.OverheadRatio),
		fmt.Sprintf("latency         avg=%.1fs median=%.1fs p95=%.1fs",
			s.AvgLatency, s.MedianLatency, s.P95Latency),
		fmt.Sprintf("transfers       started=%d completed=%d aborted=%d refused=%d",
			s.Started, s.Forwards, s.Aborted, s.Refused),
	}
	if s.Lost > 0 {
		lines = append(lines, fmt.Sprintf("faults          transfers lost=%d", s.Lost))
	}
	return append(lines, fmt.Sprintf("drops           policy=%d expired=%d acked=%d",
		s.PolicyDrops, s.ExpiredDrops, s.AckPurges))
}
