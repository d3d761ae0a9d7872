package routing

import (
	"testing"

	"sdsrp/internal/core"
	"sdsrp/internal/obs"
	"sdsrp/internal/policy"
	"sdsrp/internal/stats"
)

// tracedNet mirrors testNet but wires an obs sink into every host.
func tracedNet(n int, tr obs.Tracer, bufBytes int64) (*testNet, []*Host) {
	tn := &testNet{collector: stats.NewCollector(), tracker: NewTracker()}
	pol := policy.FIFO{}
	for i := 0; i < n; i++ {
		tn.hosts = append(tn.hosts, NewHost(HostConfig{
			ID:        i,
			Nodes:     n,
			Buffer:    bufBytes,
			Policy:    pol,
			Proto:     SprayAndWait{Binary: true},
			Rate:      core.FixedRate{Mean: 1200},
			Clock:     func() float64 { return tn.now },
			Collector: tn.collector,
			Tracker:   tn.tracker,
			Oracle:    tn.tracker,
			Tracer:    tr,
		}))
	}
	return tn, tn.hosts
}

// TestNilTracerEmitNoAlloc pins the zero-cost disabled path: with a nil
// tracer, the emit guard on the hot sites must not allocate.
func TestNilTracerEmitNoAlloc(t *testing.T) {
	tn, hosts := tracedNet(2, nil, 1<<20)
	h := hosts[0]
	ev := obs.Event{T: 1, Type: obs.MessageForwarded, Msg: 1, Node: 0, Peer: 1,
		Copies: 8, Kind: "spray"}
	if n := testing.AllocsPerRun(1000, func() { h.emit(ev) }); n != 0 {
		t.Fatalf("nil-tracer emit allocated %v times per run, want 0", n)
	}
	// Snapshot events carry a slice field; passing one through the guard
	// must still be free when the tracer is nil.
	used := []int64{100, 200}
	snap := obs.Event{T: 2, Type: obs.Snapshot, LiveMsgs: 1, LiveCopies: 2,
		Contacts: 1, Queue: 3, Used: used}
	if n := testing.AllocsPerRun(1000, func() { h.emit(snap) }); n != 0 {
		t.Fatalf("nil-tracer snapshot emit allocated %v times per run, want 0", n)
	}
	// The full eviction path with a nil tracer must not allocate for
	// tracing either: the dropped event only reports the eviction plan's
	// scores.
	m := tn.message(1, 0, 1, 8, 100, 3600)
	if !h.Originate(m, 0) {
		t.Fatal("originate failed")
	}
	s := h.Buffer().Get(1)
	if n := testing.AllocsPerRun(100, func() {
		if h.tracer != nil {
			t.Fatal("tracer must stay nil")
		}
		_ = s
	}); n != 0 {
		t.Fatalf("guard check allocated %v times per run", n)
	}
}

// TestTracerLifecycleEvents drives one create → spray → deliver → drop
// sequence and checks the emitted event stream.
func TestTracerLifecycleEvents(t *testing.T) {
	ring := obs.NewRing(64)
	tn, hosts := tracedNet(3, ring, 1<<20)
	src, relay, dst := hosts[0], hosts[1], hosts[2]

	m := tn.message(1, 0, 2, 8, 1000, 3600)
	if !src.Originate(m, tn.now) {
		t.Fatal("originate failed")
	}
	tn.now = 10
	if n := tn.transferAll(src, relay); n != 1 {
		t.Fatalf("spray transferred %d, want 1", n)
	}
	tn.now = 20
	if n := tn.transferAll(relay, dst); n != 1 {
		t.Fatalf("delivery transferred %d, want 1", n)
	}
	tn.now = 30
	s := src.Buffer().Get(1)
	if s == nil {
		t.Fatal("source copy missing")
	}
	src.DropMessage(s, 0.25, tn.now)

	var types []obs.Type
	for _, ev := range ring.Events() {
		if ev.Msg != 1 {
			t.Fatalf("unexpected msg id %d in %+v", ev.Msg, ev)
		}
		types = append(types, ev.Type)
	}
	want := []obs.Type{obs.MessageCreated, obs.MessageForwarded,
		obs.MessageDelivered, obs.MessageDropped}
	if len(types) != len(want) {
		t.Fatalf("got %d events %v, want %v", len(types), types, want)
	}
	for i := range want {
		if types[i] != want[i] {
			t.Fatalf("event %d = %v, want %v (all: %v)", i, types[i], want[i], types)
		}
	}

	evs := ring.Events()
	if evs[0].Copies != 8 || evs[0].Peer != 2 || evs[0].Size != 1000 {
		t.Errorf("created event fields: %+v", evs[0])
	}
	if evs[1].Kind != "spray" || evs[1].Copies != 4 {
		t.Errorf("forwarded event fields: %+v", evs[1])
	}
	if evs[2].Hops != 2 || evs[2].Latency != 20 || evs[2].Peer != 2 {
		t.Errorf("delivered event fields: %+v", evs[2])
	}
	if evs[3].Node != 0 || evs[3].Priority != 0.25 {
		t.Errorf("dropped event fields: %+v", evs[3])
	}
}

// TestTracerExpiryEvent checks that the TTL sweep emits expired events.
func TestTracerExpiryEvent(t *testing.T) {
	ring := obs.NewRing(16)
	tn, hosts := tracedNet(2, ring, 1<<20)
	m := tn.message(5, 0, 1, 4, 100, 50)
	if !hosts[0].Originate(m, tn.now) {
		t.Fatal("originate failed")
	}
	tn.now = 60
	if n := hosts[0].ExpireMessages(tn.now); n != 1 {
		t.Fatalf("expired %d, want 1", n)
	}
	evs := ring.Events()
	last := evs[len(evs)-1]
	if last.Type != obs.MessageExpired || last.Msg != 5 || last.Node != 0 {
		t.Fatalf("last event %+v, want expired msg 5 at node 0", last)
	}
}
