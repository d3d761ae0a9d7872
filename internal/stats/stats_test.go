package stats

import (
	"math"
	"testing"

	"sdsrp/internal/msg"
	"sdsrp/internal/obs"
)

func emitCreated(c *Collector, id msg.ID, at float64) {
	c.Emit(obs.Event{T: at, Type: obs.MessageCreated, Msg: id})
}

func emitDelivered(c *Collector, id msg.ID, now, created float64, hops int) {
	c.Emit(obs.Event{T: now, Type: obs.MessageDelivered, Msg: id, Hops: hops, Latency: now - created})
}

func emitN(c *Collector, typ obs.Type, n int) {
	for i := 0; i < n; i++ {
		c.Emit(obs.Event{Type: typ})
	}
}

func TestEmptySummary(t *testing.T) {
	c := NewCollector()
	s := c.Summarize()
	if s.DeliveryRatio != 0 || s.AvgHops != 0 || s.OverheadRatio != 0 || s.AvgLatency != 0 {
		t.Fatalf("empty summary has nonzero derived metrics: %+v", s)
	}
}

func TestDeliveryRatio(t *testing.T) {
	c := NewCollector()
	for i := 0; i < 10; i++ {
		emitCreated(c, msg.ID(100+i), 0)
	}
	emitDelivered(c, 1, 100, 0, 3)
	emitDelivered(c, 2, 200, 50, 5)
	s := c.Summarize()
	if s.DeliveryRatio != 0.2 {
		t.Fatalf("DeliveryRatio = %v, want 0.2", s.DeliveryRatio)
	}
	if s.AvgHops != 4 {
		t.Fatalf("AvgHops = %v, want 4", s.AvgHops)
	}
	if s.AvgLatency != 125 {
		t.Fatalf("AvgLatency = %v, want (100+150)/2", s.AvgLatency)
	}
}

func TestDuplicateDeliveryNotDoubleCounted(t *testing.T) {
	c := NewCollector()
	emitCreated(c, 1, 0)
	emitDelivered(c, 1, 10, 0, 2)
	emitDelivered(c, 1, 20, 0, 7)
	s := c.Summarize()
	if s.Delivered != 1 || s.Duplicates != 1 {
		t.Fatalf("delivered=%d dup=%d", s.Delivered, s.Duplicates)
	}
	if s.AvgHops != 2 {
		t.Fatalf("AvgHops uses duplicate record: %v", s.AvgHops)
	}
	if s.Forwards != 2 {
		t.Fatalf("Forwards = %d, want 2 (every delivered event is a committed transfer)", s.Forwards)
	}
}

func TestOverheadRatio(t *testing.T) {
	c := NewCollector()
	emitCreated(c, 1, 0)
	emitCreated(c, 2, 0)
	emitN(c, obs.MessageForwarded, 8)
	emitDelivered(c, 1, 5, 0, 1)
	emitDelivered(c, 2, 6, 0, 1)
	s := c.Summarize()
	if s.OverheadRatio != 4 { // (10-2)/2
		t.Fatalf("OverheadRatio = %v, want 4", s.OverheadRatio)
	}
}

func TestOverheadWithoutDeliveries(t *testing.T) {
	c := NewCollector()
	emitN(c, obs.MessageForwarded, 1)
	s := c.Summarize()
	if !math.IsInf(s.OverheadRatio, 1) {
		t.Fatalf("OverheadRatio = %v, want +Inf", s.OverheadRatio)
	}
}

func TestCounterPassthrough(t *testing.T) {
	c := NewCollector()
	emitN(c, obs.TransferStart, 2)
	emitN(c, obs.TransferAbort, 1)
	emitN(c, obs.MessageRefused, 1)
	emitN(c, obs.TransferLost, 1)
	emitN(c, obs.MessageDropped, 3)
	emitN(c, obs.MessageExpired, 1)
	c.Emit(obs.Event{Type: obs.MessagePurged, Kind: "ack"})
	c.Emit(obs.Event{Type: obs.MessagePurged, Kind: "wipe"}) // not an ACK purge
	emitN(c, obs.ContactUp, 1)                               // not a counter
	s := c.Summarize()
	if s.Started != 2 || s.Aborted != 1 || s.Refused != 1 || s.Lost != 1 ||
		s.PolicyDrops != 3 || s.ExpiredDrops != 1 || s.AckPurges != 1 || s.Forwards != 0 {
		t.Fatalf("counters wrong: %+v", s)
	}
}

// TestCounterEventsNoAlloc pins the cost of the always-on collector on the
// hottest emit sites: folding a counter-only event allocates nothing.
func TestCounterEventsNoAlloc(t *testing.T) {
	var tr obs.Tracer = NewCollector()
	evs := []obs.Event{
		{T: 1, Type: obs.TransferStart, Msg: 1, Node: 0, Peer: 1, Size: 500, Kind: "spray"},
		{T: 2, Type: obs.MessageForwarded, Msg: 1, Node: 0, Peer: 1, Copies: 8, Kind: "spray"},
		{T: 3, Type: obs.MessageDropped, Msg: 1, Node: 1, Priority: 0.25},
		{T: 4, Type: obs.MessageRefused, Msg: 1, Node: 0, Peer: 1},
	}
	for _, ev := range evs {
		if n := testing.AllocsPerRun(1000, func() { tr.Emit(ev) }); n != 0 {
			t.Errorf("%v event allocated %v times per emit, want 0", ev.Type, n)
		}
	}
}

func TestWarmupExclusion(t *testing.T) {
	c := NewCollector()
	c.WarmupUntil = 100
	emitCreated(c, 1, 50)  // warm-up: excluded
	emitCreated(c, 2, 150) // counted
	if c.Created != 1 {
		t.Fatalf("Created = %d, want 1", c.Created)
	}
	// Delivering the warm-up message leaves all metrics untouched.
	emitDelivered(c, 1, 200, 50, 3)
	emitDelivered(c, 2, 300, 150, 2)
	s := c.Summarize()
	if s.Delivered != 1 || s.DeliveryRatio != 1 || s.AvgHops != 2 {
		t.Fatalf("summary polluted by warm-up: %+v", s)
	}
	if s.Duplicates != 0 {
		t.Fatal("warm-up delivery counted as duplicate")
	}
}

func TestLatencyPercentiles(t *testing.T) {
	c := NewCollector()
	for i := 1; i <= 100; i++ {
		emitCreated(c, msg.ID(i), 0)
		emitDelivered(c, msg.ID(i), float64(i), 0, 1)
	}
	s := c.Summarize()
	if s.MedianLatency != 50 {
		t.Fatalf("median = %v, want 50", s.MedianLatency)
	}
	if s.P95Latency != 95 {
		t.Fatalf("p95 = %v, want 95", s.P95Latency)
	}
	empty := NewCollector().Summarize()
	if empty.MedianLatency != 0 || empty.P95Latency != 0 {
		t.Fatal("percentiles nonzero with no deliveries")
	}
}
