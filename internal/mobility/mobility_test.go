package mobility

import (
	"math"
	"testing"

	"sdsrp/internal/geo"
	"sdsrp/internal/rng"
)

func samplePositions(m Model, from, to, step float64) []geo.Point {
	var out []geo.Point
	for t := from; t <= to; t += step {
		out = append(out, m.Pos(t))
	}
	return out
}

func TestRandomWaypointStaysInArea(t *testing.T) {
	area := geo.NewRect(4500, 3400)
	m := NewRandomWaypoint(area, 2, 2, 0, 0, rng.New(1))
	for _, p := range samplePositions(m, 0, 20000, 7) {
		if !area.Contains(p) {
			t.Fatalf("position %v left the area", p)
		}
	}
}

func TestRandomWaypointSpeedBound(t *testing.T) {
	area := geo.NewRect(4500, 3400)
	m := NewRandomWaypoint(area, 2, 2, 0, 0, rng.New(2))
	prev := m.Pos(0)
	for ti := 1; ti <= 10000; ti++ {
		tt := float64(ti)
		p := m.Pos(tt)
		if d := p.Dist(prev); d > 2.0+1e-6 {
			t.Fatalf("moved %vm in 1s with 2m/s speed at t=%v", d, tt)
		}
		prev = p
	}
}

func TestRandomWaypointActuallyMoves(t *testing.T) {
	area := geo.NewRect(4500, 3400)
	m := NewRandomWaypoint(area, 2, 2, 0, 0, rng.New(3))
	start := m.Pos(0)
	moved := m.Pos(5000)
	if start.Dist(moved) < 1 {
		t.Fatal("node did not move in 5000s")
	}
}

func TestRandomWaypointPauses(t *testing.T) {
	// With a huge pause range relative to leg time, the node should often
	// be stationary across adjacent samples.
	area := geo.NewRect(100, 100)
	m := NewRandomWaypoint(area, 10, 10, 500, 1000, rng.New(4))
	stationary := 0
	prev := m.Pos(0)
	for ti := 1; ti < 5000; ti++ {
		p := m.Pos(float64(ti))
		if p == prev {
			stationary++
		}
		prev = p
	}
	if stationary < 4000 {
		t.Fatalf("node paused for only %d/5000 samples", stationary)
	}
}

func TestRandomWaypointDeterministic(t *testing.T) {
	area := geo.NewRect(1000, 1000)
	a := NewRandomWaypoint(area, 1, 3, 0, 10, rng.New(7))
	b := NewRandomWaypoint(area, 1, 3, 0, 10, rng.New(7))
	for ti := 0; ti < 2000; ti += 3 {
		if a.Pos(float64(ti)) != b.Pos(float64(ti)) {
			t.Fatalf("trajectories diverged at t=%d", ti)
		}
	}
}

func TestRandomWaypointCoversArea(t *testing.T) {
	// Over a long run, positions should visit all four quadrants.
	area := geo.NewRect(1000, 1000)
	m := NewRandomWaypoint(area, 20, 20, 0, 0, rng.New(8))
	var q [4]int
	for _, p := range samplePositions(m, 0, 50000, 11) {
		i := 0
		if p.X > 500 {
			i |= 1
		}
		if p.Y > 500 {
			i |= 2
		}
		q[i]++
	}
	for i, c := range q {
		if c == 0 {
			t.Fatalf("quadrant %d never visited: %v", i, q)
		}
	}
}

func TestStatic(t *testing.T) {
	m := Static{P: geo.Point{X: 3, Y: 4}}
	if m.Pos(0) != m.Pos(1e9) {
		t.Fatal("static node moved")
	}
}

func TestRandomWalkStaysInAreaAndMoves(t *testing.T) {
	area := geo.NewRect(500, 500)
	m := NewRandomWalk(area, 2, 2, 100, rng.New(9))
	pts := samplePositions(m, 0, 10000, 5)
	for _, p := range pts {
		if !area.Contains(p) {
			t.Fatalf("random walk left area: %v", p)
		}
	}
	if pts[0].Dist(pts[len(pts)-1]) == 0 && pts[0].Dist(pts[len(pts)/2]) == 0 {
		t.Fatal("random walk did not move")
	}
}

func TestRandomDirectionReachesBorders(t *testing.T) {
	area := geo.NewRect(400, 400)
	m := NewRandomDirection(area, 5, 5, 0, 1, rng.New(10))
	onBorder := 0
	for _, p := range samplePositions(m, 0, 20000, 1) {
		if !area.Contains(p) {
			t.Fatalf("random direction left area: %v", p)
		}
		if p.X < 1e-6 || p.Y < 1e-6 || p.X > 400-1e-6 || p.Y > 400-1e-6 {
			onBorder++
		}
	}
	if onBorder == 0 {
		t.Fatal("random direction never reached a border")
	}
}

func TestReflect1(t *testing.T) {
	cases := []struct{ v, want float64 }{
		{50, 50}, {-10, 10}, {110, 90}, {210, 10}, {-110, 90}, {0, 0}, {100, 100},
	}
	for _, c := range cases {
		if got := reflect1(c.v, 0, 100); math.Abs(got-c.want) > 1e-9 {
			t.Fatalf("reflect1(%v) = %v, want %v", c.v, got, c.want)
		}
	}
}

func TestBorderHit(t *testing.T) {
	area := geo.NewRect(100, 100)
	// Straight east from the centre hits (100, 50).
	p := borderHit(area, geo.Point{X: 50, Y: 50}, 0)
	if math.Abs(p.X-100) > 1e-9 || math.Abs(p.Y-50) > 1e-9 {
		t.Fatalf("borderHit east = %v", p)
	}
	// Straight north hits (50, 100).
	p = borderHit(area, geo.Point{X: 50, Y: 50}, math.Pi/2)
	if math.Abs(p.X-50) > 1e-9 || math.Abs(p.Y-100) > 1e-9 {
		t.Fatalf("borderHit north = %v", p)
	}
}

func TestPathPlayback(t *testing.T) {
	p, err := NewPath([]TimedPoint{
		{T: 10, P: geo.Point{X: 0, Y: 0}},
		{T: 20, P: geo.Point{X: 10, Y: 0}},
		{T: 40, P: geo.Point{X: 10, Y: 20}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if p.Pos(0) != (geo.Point{X: 0, Y: 0}) {
		t.Fatal("before first waypoint wrong")
	}
	if p.Pos(15) != (geo.Point{X: 5, Y: 0}) {
		t.Fatalf("mid-segment = %v", p.Pos(15))
	}
	if p.Pos(30) != (geo.Point{X: 10, Y: 10}) {
		t.Fatalf("second segment = %v", p.Pos(30))
	}
	if p.Pos(1000) != (geo.Point{X: 10, Y: 20}) {
		t.Fatal("after last waypoint wrong")
	}
	if p.Duration() != 30 || p.Start() != 10 {
		t.Fatalf("Duration=%v Start=%v", p.Duration(), p.Start())
	}
}

func TestPathSortsWaypoints(t *testing.T) {
	p, err := NewPath([]TimedPoint{
		{T: 20, P: geo.Point{X: 10, Y: 0}},
		{T: 10, P: geo.Point{X: 0, Y: 0}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if p.Pos(10) != (geo.Point{X: 0, Y: 0}) {
		t.Fatal("waypoints not sorted by time")
	}
}

func TestPathEmptyRejected(t *testing.T) {
	if _, err := NewPath(nil); err == nil {
		t.Fatal("empty path accepted")
	}
}

func TestPathDuplicateTimes(t *testing.T) {
	p, err := NewPath([]TimedPoint{
		{T: 10, P: geo.Point{X: 0, Y: 0}},
		{T: 10, P: geo.Point{X: 5, Y: 5}},
		{T: 20, P: geo.Point{X: 10, Y: 10}},
	})
	if err != nil {
		t.Fatal(err)
	}
	got := p.Pos(10)
	if math.IsNaN(got.X) || math.IsNaN(got.Y) {
		t.Fatal("duplicate waypoint times produced NaN")
	}
}

func TestTaxiStaysInAreaAndAggregates(t *testing.T) {
	cfg := DefaultTaxiConfig()
	root := rng.New(20)
	const fleet = 40
	taxis := make([]*Taxi, fleet)
	for i := range taxis {
		taxis[i] = NewTaxi(cfg, root.SplitIndex("taxi", i))
	}
	// Sample the fleet over time; count positions near the dominant hotspot
	// versus an equal-sized control zone in an empty corner.
	hot := cfg.Hotspots[0].Center
	control := geo.Point{X: 5200, Y: 500}
	nearHot, nearControl := 0, 0
	for ti := 0; ti <= 18000; ti += 60 {
		for _, tx := range taxis {
			p := tx.Pos(float64(ti))
			if !cfg.Area.Contains(p) {
				t.Fatalf("taxi left area: %v", p)
			}
			if p.Dist(hot) < 600 {
				nearHot++
			}
			if p.Dist(control) < 600 {
				nearControl++
			}
		}
	}
	if nearHot < 4*nearControl {
		t.Fatalf("no aggregation: hot=%d control=%d", nearHot, nearControl)
	}
}

func TestTaxiDeterministic(t *testing.T) {
	cfg := DefaultTaxiConfig()
	a := NewTaxi(cfg, rng.New(31))
	b := NewTaxi(cfg, rng.New(31))
	for ti := 0; ti < 5000; ti += 13 {
		if a.Pos(float64(ti)) != b.Pos(float64(ti)) {
			t.Fatalf("taxi trajectories diverged at t=%d", ti)
		}
	}
}

// TestLegMatchesPos checks the Legged contract on every model that
// implements it: after Pos(t), a twin built from the same seed and queried
// at any t′ in [t, until] (the leg end itself included) sits at
// Pos(t) + v·(t′−t), up to rounding, and |v| respects MaxSpeed. Pauses,
// leg ends and zero-length legs (taxi fares clamped to one corner) all
// occur within the sampled horizon.
func TestLegMatchesPos(t *testing.T) {
	area := geo.NewRect(800, 600)
	corner := TaxiConfig{
		Area:        area,
		Hotspots:    []Hotspot{{Center: geo.Point{X: -1e5, Y: -1e5}, Sigma: 1, Weight: 1}},
		UniformProb: 0.5,
		SpeedLo:     6, SpeedHi: 14, PauseLo: 5, PauseHi: 60,
	}
	for name, build := range map[string]func(seed uint64) Legged{
		"rwp-pauses":       func(seed uint64) Legged { return NewRandomWaypoint(area, 0.5, 3, 0, 120, rng.New(seed)) },
		"rwp-no-pause":     func(seed uint64) Legged { return NewRandomWaypoint(area, 2, 2, 0, 0, rng.New(seed)) },
		"random-walk":      func(seed uint64) Legged { return NewRandomWalk(area, 1, 4, 150, rng.New(seed)) },
		"random-direction": func(seed uint64) Legged { return NewRandomDirection(area, 0.5, 3, 0, 30, rng.New(seed)) },
		"taxi-corner":      func(seed uint64) Legged { return NewTaxi(corner, rng.New(seed)) },
		"map-route": func(seed uint64) Legged {
			m, err := NewMapRoute(testGrid(t), 1, 4, 0, 60, rng.New(seed))
			if err != nil {
				t.Fatal(err)
			}
			return m
		},
		"static": func(uint64) Legged { return Static{P: geo.Point{X: 3, Y: 4}} },
	} {
		t.Run(name, func(t *testing.T) {
			for seed := uint64(1); seed <= 3; seed++ {
				m, twin, pick := build(seed), build(seed), rng.New(seed+100)
				paused, ends := 0, 0
				for k := 0; k < 2000; k++ {
					now := float64(k) * 10
					p := m.Pos(now)
					v, until := m.Leg(now)
					if !(until > now) {
						t.Fatalf("seed %d: Leg(%g) until %g is not after the query", seed, now, until)
					}
					if v.Len() > m.MaxSpeed()*(1+1e-9) {
						t.Fatalf("seed %d: |v| = %g exceeds MaxSpeed %g", seed, v.Len(), m.MaxSpeed())
					}
					if v == (geo.Vec{}) && until < math.Inf(1) {
						paused++
					}
					// The twin's next query stays below the next sample time.
					dt := pick.Uniform(0, 9.999)
					if until-now <= 9.999 {
						ends++
						if pick.Bool(0.5) {
							dt = until - now
						} else {
							dt = math.Min(dt, until-now)
						}
					}
					want := p.Add(v.Scale(dt))
					if got := twin.Pos(now + dt); got.Dist2(want) > 1e-12 {
						t.Fatalf("seed %d: Pos(%g) = %v, the leg from %v at %g says %v", seed, now+dt, got, p, now, want)
					}
				}
				if name != "static" && name != "random-walk" && name != "rwp-no-pause" && paused == 0 {
					t.Fatalf("seed %d: no pause sampled", seed)
				}
				if name != "static" && ends == 0 {
					t.Fatalf("seed %d: no leg end sampled", seed)
				}
			}
		})
	}
}
