package network

import (
	"math"
	"testing"

	"sdsrp/internal/core"
	"sdsrp/internal/geo"
	"sdsrp/internal/mobility"
	"sdsrp/internal/policy"
	"sdsrp/internal/routing"
	"sdsrp/internal/sim"
	"sdsrp/internal/stats"
	"sdsrp/internal/trace"
)

// TestValidateContacts covers contacts built in code, which skip the trace
// parser: NaN passes both interval comparisons, so it needs its own check.
func TestValidateContacts(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	if err := ValidateContacts([]trace.Contact{{A: 0, B: 1, Start: 0, End: 5}}, 2); err != nil {
		t.Fatalf("valid contact rejected: %v", err)
	}
	for _, c := range []struct {
		name string
		c    trace.Contact
	}{
		{"self", trace.Contact{A: 1, B: 1, Start: 0, End: 5}},
		{"out of range", trace.Contact{A: 0, B: 2, Start: 0, End: 5}},
		{"empty", trace.Contact{A: 0, B: 1, Start: 5, End: 5}},
		{"negative start", trace.Contact{A: 0, B: 1, Start: -1, End: 5}},
		{"NaN start", trace.Contact{A: 0, B: 1, Start: nan, End: 5}},
		{"NaN end", trace.Contact{A: 0, B: 1, Start: 0, End: nan}},
		{"-Inf start", trace.Contact{A: 0, B: 1, Start: -inf, End: 5}},
		{"+Inf start", trace.Contact{A: 0, B: 1, Start: inf, End: inf}},
		{"+Inf end", trace.Contact{A: 0, B: 1, Start: 0, End: inf}},
	} {
		if err := ValidateContacts([]trace.Contact{c.c}, 2); err == nil {
			t.Errorf("%s: %+v accepted", c.name, c.c)
		}
	}
}

// TestScheduledRunBuildsNoPlanner: a manager driven by a recorded contact
// list never scans, so it must drop its scanner. A scanning manager, the
// positive control, holds no neighbour-list grid after NewManager and one
// after its first scan tick: the grid is built on the first scan tick
// alone, so a contact-trace run never allocates it.
func TestScheduledRunBuildsNoPlanner(t *testing.T) {
	build := func() (*sim.Engine, *Manager) {
		eng := sim.NewEngine()
		collector := stats.NewCollector()
		const n = 3
		hosts := make([]*routing.Host, n)
		models := make([]mobility.Model, n)
		for i := range hosts {
			hosts[i] = routing.NewHost(routing.HostConfig{
				ID: i, Nodes: n, Buffer: 10000,
				Policy: policy.FIFO{}, Proto: routing.SprayAndWait{Binary: true},
				Rate:  core.FixedRate{Mean: 1200},
				Clock: eng.Now, Tracer: collector,
			})
			models[i] = mobility.Static{P: geo.Point{X: float64(30 * i)}}
		}
		return eng, mustManager(NewManager(eng, Config{
			Area: geo.NewRect(1000, 1000), Range: 50, Bandwidth: 100, ScanInterval: 1,
			Tracer: collector,
		}, hosts, models))
	}

	eng, m := build()
	if err := m.StartScheduled([]trace.Contact{{A: 0, B: 1, Start: 5, End: 20}, {A: 1, B: 2, Start: 10, End: 30}}); err != nil {
		t.Fatal(err)
	}
	eng.Run(40)
	if m.Contacts() != 2 {
		t.Fatalf("scheduled run made %d contacts, want 2", m.Contacts())
	}
	if m.scan != nil {
		t.Fatal("scheduled run holds a scanner it never used")
	}

	eng, m = build()
	if m.scan.list.grid != nil {
		t.Fatal("NewManager built the neighbour list's grid before any scan tick")
	}
	m.Scan(eng.Now())
	if m.scan.list.grid == nil {
		t.Fatal("a scanning run holds no neighbour-list grid after its first tick")
	}
}
