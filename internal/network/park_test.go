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
	"sdsrp/internal/trace"
)

// TestKineticParksAndWakesAcrossWheelLaps drives a 1 m/s node 400 m toward
// a fixed one, ending 30 m away (range 50), under the kinetic planner. The
// 2 km cells keep the mover's cell deadline (570 ticks) beyond the pair's:
// both nodes park once for ~379 ticks — more than one full wheel lap, so
// their bucket entries are re-kept at least once — wake within a tick or
// two of the true earliest approach, and still produce the contact.
func TestKineticParksAndWakesAcrossWheelLaps(t *testing.T) {
	eng := sim.NewEngine()
	collector := stats.NewCollector()
	paths := [][]mobility.TimedPoint{
		{{T: 0, P: geo.Point{X: 1000, Y: 1000}}}, // single waypoint: MaxSpeed 0
		{{T: 0, P: geo.Point{X: 1430, Y: 1000}}, {T: 400, P: geo.Point{X: 1030, Y: 1000}}},
	}
	hosts := make([]*routing.Host, len(paths))
	models := make([]mobility.Model, len(paths))
	for i, pts := range paths {
		hosts[i] = routing.NewHost(routing.HostConfig{
			ID: i, Nodes: len(paths), Buffer: 10000,
			Policy: policy.FIFO{}, Proto: routing.SprayAndWait{Binary: true},
			Rate:  core.FixedRate{Mean: 1200},
			Clock: eng.Now, Tracer: collector,
		})
		p, err := mobility.NewPath(pts)
		if err != nil {
			t.Fatal(err)
		}
		models[i] = p
	}
	m := mustManager(NewManager(eng, Config{
		Area: geo.NewRect(4000, 4000), Range: 50, Bandwidth: 100, ScanInterval: 1,
		Tracer: collector, Planner: KineticPlanner, CellSize: 2000,
	}, hosts, models))
	m.Start()
	eng.Run(500)
	if got := m.ActiveLinks(); got != 1 {
		t.Fatalf("ActiveLinks = %d, want the pair linked at rest 30 m apart", got)
	}
	checked, skipped, wakeups := m.ScanStats()
	if wakeups != 2 {
		t.Fatalf("wakeups = %d, want exactly 2 (each node parks and wakes once)", wakeups)
	}
	if skipped < 600 {
		t.Fatalf("pairsSkipped = %d, want ≥ 600 parked node-ticks", skipped)
	}
	// 500 ticks of naive scanning would evaluate the predicate ≥ 500 times;
	// the planner pays one check up front, the post-wake approach, and the
	// per-tick down check while linked.
	if checked >= 400 {
		t.Fatalf("pairsChecked = %d — parking saved nothing", checked)
	}
}

// TestScheduledRunBuildsNoPlanner: a manager driven by a recorded contact
// list never scans, so it must drop its scanner and never allocate a scan
// planner, even a forced one. A scanning manager forced onto the kinetic
// planner builds it on its first tick.
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
			Tracer: collector, Planner: KineticPlanner,
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
	m.Start()
	eng.Run(3)
	if m.scan.plan == nil {
		t.Fatal("a scanning 3-node run forced onto the kinetic planner did not build it")
	}
}
