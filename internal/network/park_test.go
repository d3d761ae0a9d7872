package network

import (
	"testing"

	"sdsrp/internal/core"
	"sdsrp/internal/geo"
	"sdsrp/internal/mobility"
	"sdsrp/internal/policy"
	"sdsrp/internal/routing"
	"sdsrp/internal/sim"
	"sdsrp/internal/stats"
)

// TestPlannerForFleetSize pins the automatic planner choice at the fleet
// sizes the benchmarks run: Table II (100), Table III (200), densescan
// (400), fleet-10k (10 000) and scan100k (100 000), plus both sides of the
// crossover. A forced planner is kept whatever the size.
func TestPlannerForFleetSize(t *testing.T) {
	for _, tc := range []struct {
		name string
		n    int
		want Planner
	}{
		{"table2", 100, LazyPlanner},
		{"table3", 200, LazyPlanner},
		{"densescan", 400, LazyPlanner},
		{"below-crossover", kineticFrom - 1, LazyPlanner},
		{"at-crossover", kineticFrom, KineticPlanner},
		{"fleet-10k", 10_000, KineticPlanner},
		{"scan100k", 100_000, KineticPlanner},
	} {
		if got := plannerFor(AutoPlanner, tc.n); got != tc.want {
			t.Errorf("%s: plannerFor(auto, %d) = %d, want %d", tc.name, tc.n, got, tc.want)
		}
	}
	for _, p := range []Planner{NaivePlanner, LazyPlanner, KineticPlanner} {
		for _, n := range []int{2, 100_000} {
			if got := plannerFor(p, n); got != p {
				t.Errorf("plannerFor(%d, %d) = %d, want the forced planner", p, n, got)
			}
		}
	}
}

// TestScheduledRunBuildsNoPlanner: a manager driven by a recorded contact
// list never scans, so it must never allocate a scan planner (the lazy
// sweep's pair arrays are O(n²)). A scanning manager builds one on its
// first tick.
func TestScheduledRunBuildsNoPlanner(t *testing.T) {
	build := func() (*sim.Engine, *Manager) {
		eng := sim.NewEngine()
		collector := stats.NewCollector()
		tracker := routing.NewTracker()
		const n = 3
		hosts := make([]*routing.Host, n)
		models := make([]mobility.Model, n)
		for i := range hosts {
			hosts[i] = routing.NewHost(routing.HostConfig{
				ID: i, Nodes: n, Buffer: 10000,
				Policy: policy.FIFO{}, Proto: routing.SprayAndWait{Binary: true},
				Rate:  core.FixedRate{Mean: 1200},
				Clock: eng.Now, Collector: collector, Tracker: tracker, Oracle: tracker,
			})
			models[i] = mobility.Static{P: geo.Point{X: float64(30 * i)}}
		}
		return eng, mustManager(NewManager(eng, Config{
			Area: geo.NewRect(1000, 1000), Range: 50, Bandwidth: 100, ScanInterval: 1,
		}, hosts, models, collector, nil))
	}

	eng, m := build()
	if err := m.StartScheduled([]Contact{{A: 0, B: 1, Start: 5, End: 20}, {A: 1, B: 2, Start: 10, End: 30}}); err != nil {
		t.Fatal(err)
	}
	eng.Run(40)
	if m.Contacts() != 2 {
		t.Fatalf("scheduled run made %d contacts, want 2", m.Contacts())
	}
	if m.plan != nil {
		t.Fatalf("scheduled run holds a %s planner it never used", m.plan.name())
	}

	eng, m = build()
	m.Start()
	eng.Run(3)
	if m.plan == nil || m.plan.name() != "lazy" {
		t.Fatal("a scanning 3-node run did not build the lazy sweep")
	}
}
