package routing

import (
	"testing"

	"sdsrp/internal/core"
	"sdsrp/internal/obs"
	"sdsrp/internal/policy"
)

// tracedNet mirrors testNet but fans every host's events out to tr too.
func tracedNet(n int, tr obs.Tracer, bufBytes int64) (*testNet, []*Host) {
	tn := emptyNet()
	pol := policy.FIFO{}
	for i := 0; i < n; i++ {
		tn.hosts = append(tn.hosts, NewHost(HostConfig{
			ID:     i,
			Nodes:  n,
			Buffer: bufBytes,
			Policy: pol,
			Proto:  SprayAndWait{Binary: true},
			Rate:   core.FixedRate{Mean: 1200},
			Clock:  func() float64 { return tn.now },
			Tracer: tn.tracer(tr),
			Truth:  tn.ledger,
		}))
	}
	return tn, tn.hosts
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
