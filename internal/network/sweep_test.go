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
)

func TestParkTicksDeadlines(t *testing.T) {
	inf := math.Inf(1)
	cases := []struct {
		name     string
		va, vb   float64
		interval float64
		d, r     float64
		want     int64
	}{
		{"both-static", 0, 0, 1, 500, 50, -1},
		{"static-in-range", 0, 0, 1, 40, 50, 0},              // in range ⇒ near, never retired
		{"static-at-range", 0, 0, 1, 50, 50, 0},              // boundary counts as in range
		{"negative-speed-sum-guards", 0, -1, 1, 500, 50, -1}, // contract violation still safe
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
			s := &sweep{parking: parking{interval: tc.interval, speed: []float64{tc.va, tc.vb}}}
			got := s.parkTicks(0, 1, tc.d*tc.d, tc.r)
			if got != tc.want {
				t.Fatalf("parkTicks(d=%g, r=%g, v=%g+%g, I=%g) = %d, want %d",
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
					s := &sweep{parking: parking{interval: interval, speed: []float64{va, vb}}}
					k := s.parkTicks(0, 1, d*d, r)
					if k < 0 {
						t.Fatalf("finite speeds %g+%g retired", va, vb)
					}
					// K ticks of closing at the bound must not reach the true
					// gap; the DistLowerBound slack (~d·1e-9) dominates every
					// rounding step in this chain.
					c := va + vb
					if maxClose := float64(k) * c * interval; maxClose > d-r {
						t.Fatalf("parkTicks(d=%g, c=%g, I=%g) = %d can close %g > gap %g",
							d, c, interval, k, maxClose, d-r)
					}
				}
			}
		}
	}
}

// pathManager builds a 1s-scan manager over trace-playback models; its two
// to three nodes get the lazy sweep.
func pathManager(t *testing.T, eng *sim.Engine, rng float64, paths ...[]mobility.TimedPoint) *Manager {
	t.Helper()
	collector := stats.NewCollector()
	n := len(paths)
	hosts := make([]*routing.Host, n)
	models := make([]mobility.Model, n)
	for i, pts := range paths {
		hosts[i] = routing.NewHost(routing.HostConfig{
			ID: i, Nodes: n, Buffer: 10000,
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
	return mustManager(NewManager(eng, Config{
		Area: geo.NewRect(100000, 1000), Range: rng, Bandwidth: 100, ScanInterval: 1,
		Tracer: collector,
	}, hosts, models))
}

// TestSweepParksAndWakesAcrossWheelLaps drives a 1 m/s node 400 m toward a
// fixed one, ending 30 m away (range 50). The pair parks once for ~379
// ticks — more than one full wheel lap, so the bucket entry is re-kept at
// least once — wakes within a tick or two of the true earliest approach,
// and still produces the contact.
func TestSweepParksAndWakesAcrossWheelLaps(t *testing.T) {
	eng := sim.NewEngine()
	m := pathManager(t, eng, 50,
		[]mobility.TimedPoint{{T: 0, P: geo.Point{X: 300, Y: 0}}}, // single waypoint: MaxSpeed 0
		[]mobility.TimedPoint{{T: 0, P: geo.Point{X: 730, Y: 0}}, {T: 400, P: geo.Point{X: 330, Y: 0}}},
	)
	m.Start()
	eng.Run(500)
	if got := m.ActiveLinks(); got != 1 {
		t.Fatalf("ActiveLinks = %d, want the pair linked at rest 30 m apart", got)
	}
	checked, skipped, wakeups := m.ScanStats()
	if wakeups != 1 {
		t.Fatalf("wakeups = %d, want exactly 1 (single park, single wake)", wakeups)
	}
	if skipped < 300 {
		t.Fatalf("pairsSkipped = %d, want ≥ 300 parked ticks", skipped)
	}
	// 500 ticks of naive scanning would evaluate the predicate ≥ 500 times;
	// the planner pays one check up front, the post-wake approach, and the
	// per-tick down check while linked.
	if checked >= 400 {
		t.Fatalf("pairsChecked = %d — parking saved nothing", checked)
	}
}

// TestSweepRetiresStaticPairs: two immobile nodes out of range are checked on
// the first tick and never again.
func TestSweepRetiresStaticPairs(t *testing.T) {
	eng := sim.NewEngine()
	collector := stats.NewCollector()
	hosts := make([]*routing.Host, 2)
	models := []mobility.Model{
		mobility.Static{P: geo.Point{X: 0, Y: 0}},
		mobility.Static{P: geo.Point{X: 500, Y: 0}},
	}
	for i := range hosts {
		hosts[i] = routing.NewHost(routing.HostConfig{
			ID: i, Nodes: 2, Buffer: 10000,
			Policy: policy.FIFO{}, Proto: routing.SprayAndWait{Binary: true},
			Rate:  core.FixedRate{Mean: 1200},
			Clock: eng.Now, Tracer: collector,
		})
	}
	m := mustManager(NewManager(eng, Config{
		Area: geo.NewRect(1000, 1000), Range: 100, Bandwidth: 100, ScanInterval: 1,
		Tracer: collector,
	}, hosts, models))
	m.Start()
	eng.Run(200)
	checked, skipped, wakeups := m.ScanStats()
	if checked != 1 {
		t.Fatalf("pairsChecked = %d, want exactly the first-tick check", checked)
	}
	if wakeups != 0 {
		t.Fatalf("wakeups = %d for a retired pair", wakeups)
	}
	if skipped < 190 {
		t.Fatalf("pairsSkipped = %d, want one per remaining tick", skipped)
	}
}

// TestSweepStaticPairSurvivesChurnReboot pins the regression where an
// in-range static-static pair with a churn-downed endpoint was permanently
// retired (closing speed 0) on its first scan: nothing ever wakes a retired
// pair, so the link would never come up after the reboot, diverging from
// the naive scanner. The pair must instead stay near — distance did not
// rule it out — and link as soon as the endpoint is back.
func TestSweepStaticPairSurvivesChurnReboot(t *testing.T) {
	eng := sim.NewEngine()
	collector := stats.NewCollector()
	hosts := make([]*routing.Host, 2)
	models := []mobility.Model{
		mobility.Static{P: geo.Point{X: 0, Y: 0}},
		mobility.Static{P: geo.Point{X: 30, Y: 0}},
	}
	for i := range hosts {
		hosts[i] = routing.NewHost(routing.HostConfig{
			ID: i, Nodes: 2, Buffer: 10000,
			Policy: policy.FIFO{}, Proto: routing.SprayAndWait{Binary: true},
			Rate:  core.FixedRate{Mean: 1200},
			Clock: eng.Now, Tracer: collector,
		})
	}
	m := mustManager(NewManager(eng, Config{
		Area: geo.NewRect(1000, 1000), Range: 50, Bandwidth: 100, ScanInterval: 1,
		Tracer: collector,
	}, hosts, models))
	// Crash node 1 by hand (churn bookkeeping without an injector), scan
	// while it is dark, then reboot and scan again.
	m.down = make([]bool, 2)
	m.down[1] = true
	m.Scan(1)
	if got := m.ActiveLinks(); got != 0 {
		t.Fatalf("ActiveLinks = %d while an endpoint is down, want 0", got)
	}
	m.down[1] = false
	m.Scan(2)
	if got := m.ActiveLinks(); got != 1 {
		t.Fatalf("ActiveLinks = %d after reboot, want the in-range static pair re-linked", got)
	}
}

// TestPairIndexRoundTrip checks the triangular index and its table-driven
// inverse over every pair of a 9-node fleet, plus the initial active-set
// bookkeeping.
func TestPairIndexRoundTrip(t *testing.T) {
	r := newRig(9, 10000)
	s := newSweep(r.mgr.scan)
	seen := make(map[int]bool)
	for a := 0; a < 9; a++ {
		for b := a + 1; b < 9; b++ {
			p := s.pairIndex(a, b)
			if p < 0 || p >= 36 {
				t.Fatalf("pairIndex(%d,%d) = %d out of range", a, b, p)
			}
			if seen[p] {
				t.Fatalf("pairIndex(%d,%d) = %d collides", a, b, p)
			}
			seen[p] = true
			ga, gb := s.pairNodes(int32(p))
			if ga != a || gb != b {
				t.Fatalf("pairNodes(%d) = (%d,%d), want (%d,%d)", p, ga, gb, a, b)
			}
		}
	}
	if len(s.active) != 36 {
		t.Fatalf("active = %d pairs, want all 36 near at construction", len(s.active))
	}
	for i, p := range s.active {
		if s.slot[p] != int32(i) {
			t.Fatalf("slot[%d] = %d, want %d", p, s.slot[p], i)
		}
	}
}
