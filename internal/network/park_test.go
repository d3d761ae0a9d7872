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

// TestParkTicksDeadlines pins parking.pairTicks' motion bound on a core
// without models, which parks on the bound alone.
func TestParkTicksDeadlines(t *testing.T) {
	inf := math.Inf(1)
	cases := []struct {
		name     string
		va, vb   float64
		interval float64
		d, r     float64
		want     int64
	}{
		{"both-static", 0, 0, 1, 500, 50, maxParkTicks},
		{"static-in-range", 0, 0, 1, 40, 50, 0},                        // in range ⇒ awake
		{"static-at-range", 0, 0, 1, 50, 50, 0},                        // boundary counts as in range
		{"negative-speed-sum-guards", 0, -1, 1, 500, 50, maxParkTicks}, // contract violation still safe
		{"in-range", 2, 2, 1, 40, 50, 0},
		{"exactly-at-range", 2, 2, 1, 50, 50, 0}, // lower bound < r ⇒ gap < 0
		{"just-outside", 2, 2, 1, 54, 50, 0},     // gap ≈ 4, c·I = 4 ⇒ K = 0
		{"one-tick-away", 2, 2, 1, 57, 50, 1},
		{"equal-speeds", 3, 3, 1, 650, 50, 99},    // gap ≈ 600, c = 6
		{"asymmetric", 0, 5, 1, 550, 50, 99},      // one mover carries the bound
		{"long-interval", 1, 1, 30, 6050, 50, 99}, // denominator scales with tick length
		{"teleporter", inf, 2, 1, 1e6, 50, 0},     // +Inf closing speed: checked every tick
		{"crawler-caps", 1e-9, 0, 1, 1e6, 50, maxParkTicks},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := &parking{interval: tc.interval, speed: []float64{tc.va, tc.vb}}
			got := p.pairTicks(0, 1, tc.d*tc.d, tc.r)
			if got != tc.want {
				t.Fatalf("pairTicks(d=%g, r=%g, v=%g+%g, I=%g) = %d, want %d",
					tc.d, tc.r, tc.va, tc.vb, tc.interval, got, tc.want)
			}
		})
	}
}

// TestParkTicksConservative pins the safety property the byte-identity proof
// rests on: over K skipped ticks the pair can close at most K·c·I metres,
// which never reaches the (conservatively lower-bounded) gap.
func TestParkTicksConservative(t *testing.T) {
	for _, va := range []float64{0, 0.5, 2, 13.9} {
		for _, vb := range []float64{0.01, 1, 7} {
			for _, interval := range []float64{0.1, 1, 30} {
				for _, d := range []float64{51, 60, 200, 4000, 1e7} {
					const r = 50.0
					p := &parking{interval: interval, speed: []float64{va, vb}}
					k := p.pairTicks(0, 1, d*d, r)
					// K ticks of closing at the bound must not reach the true
					// gap; the DistLowerBound slack (~d·1e-9) dominates every
					// rounding step in this chain.
					c := va + vb
					if maxClose := float64(k) * c * interval; maxClose > d-r {
						t.Fatalf("pairTicks(d=%g, c=%g, I=%g) = %d can close %g > gap %g",
							d, c, interval, k, maxClose, d-r)
					}
				}
			}
		}
	}
}

// TestKineticParksAndWakesAcrossWheelLaps drives a 1 m/s node 400 m toward
// a fixed one, ending 30 m away (range 50), under the kinetic planner. Trace
// playback reports no legs, so both nodes park on the motion bound, and the
// 2 km cells keep the mover's cell deadline (570 ticks) beyond the pair's:
// both park once for ~379 ticks — more than one full wheel lap, so their
// bucket entries are re-kept at least once — wake within a tick or two of
// the true earliest approach, and still produce the contact.
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
	if m.FallbackReason() != "" {
		t.Fatalf("planner retired: %s", m.FallbackReason())
	}
}

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
		{"table2", 100, NaivePlanner},
		{"table3", 200, NaivePlanner},
		{"densescan", 400, KineticPlanner},
		{"below-crossover", kineticFrom - 1, NaivePlanner},
		{"at-crossover", kineticFrom, KineticPlanner},
		{"fleet-10k", 10_000, KineticPlanner},
		{"scan100k", 100_000, KineticPlanner},
	} {
		if got := plannerFor(AutoPlanner, tc.n); got != tc.want {
			t.Errorf("%s: plannerFor(auto, %d) = %d, want %d", tc.name, tc.n, got, tc.want)
		}
	}
	for _, p := range []Planner{NaivePlanner, KineticPlanner} {
		for _, n := range []int{2, 100_000} {
			if got := plannerFor(p, n); got != p {
				t.Errorf("plannerFor(%d, %d) = %d, want the forced planner", p, n, got)
			}
		}
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
