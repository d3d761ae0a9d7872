package network

import (
	"math"
	"testing"

	"sdsrp/internal/core"
	"sdsrp/internal/geo"
	"sdsrp/internal/graph"
	"sdsrp/internal/mobility"
	"sdsrp/internal/policy"
	"sdsrp/internal/rng"
	"sdsrp/internal/routing"
	"sdsrp/internal/sim"
	"sdsrp/internal/stats"
	"sdsrp/internal/trace"
)

// testScanner builds the scanner of a fleet of models over the given area,
// with radio range radio (or the per-node ranges, when not nil) and scan
// interval, with no scan driven.
func testScanner(t *testing.T, models []mobility.Model, area geo.Rect, radio, interval float64, ranges []float64) *scanner {
	t.Helper()
	eng := sim.NewEngine()
	collector := stats.NewCollector()
	hosts := make([]*routing.Host, len(models))
	for i := range hosts {
		hosts[i] = routing.NewHost(routing.HostConfig{
			ID: i, Nodes: len(models), Buffer: 10000,
			Policy: policy.FIFO{}, Proto: routing.SprayAndWait{Binary: true},
			Rate:  core.FixedRate{Mean: 1200},
			Clock: eng.Now, Tracer: collector,
		})
	}
	m, err := NewManager(eng, Config{
		Area: area, Range: radio, Ranges: ranges, Bandwidth: 100, ScanInterval: interval,
		Tracer: collector,
	}, hosts, models)
	if err != nil {
		t.Fatal(err)
	}
	return m.scan
}

// scripted is a test model on one linear leg: it moves from p at velocity v
// until until, then rests at the leg's end. max is its MaxSpeed.
type scripted struct {
	p     geo.Point
	v     geo.Vec
	until float64
	max   float64
}

func (m *scripted) Pos(t float64) geo.Point { return m.p.Add(m.v.Scale(math.Min(t, m.until))) }
func (m *scripted) MaxSpeed() float64       { return m.max }

// listWorld is one family of the neighbour list's property tests: a fleet
// of real models on a grid whose area may be smaller than the area they
// roam.
type listWorld struct {
	name     string
	area     geo.Rect // the grid's
	radio    float64
	interval float64
	models   func(t *testing.T, s *rng.Stream) []mobility.Model
}

// listWorlds returns the list's families: walkers that pause, at Table II's
// speed, on long ticks, roaming beyond the grid and among static peers;
// taxis on zero-length fares; random direction, random walk and map routes;
// a synthesized taxi fleet played back as paths; walkers meeting head-on at
// their speed bound, 1.5 m/s each, so that an unlisted pair closes as fast
// as the bound allows and comes within range one tick after the list's
// margin; and a teleporting fleet, whose list must fall back to a per-tick
// build at the radio range.
func listWorlds() []listWorld {
	rwp := func(area geo.Rect, n int, lo, hi, pauseLo, pauseHi float64) func(*testing.T, *rng.Stream) []mobility.Model {
		return func(_ *testing.T, s *rng.Stream) []mobility.Model {
			ms := make([]mobility.Model, n)
			for i := range ms {
				ms[i] = mobility.NewRandomWaypoint(area, lo, hi, pauseLo, pauseHi, s.SplitIndex("node", i))
			}
			return ms
		}
	}
	small := geo.NewRect(800, 600)
	return []listWorld{
		{"rwp-pauses", small, 60, 1, rwp(small, 14, 0.5, 3, 0, 120)},
		{"rwp-table2-speed", small, 50, 1, rwp(small, 14, 2, 2, 0, 0)},
		{"rwp-long-ticks", small, 60, 2.5, rwp(small, 14, 0.5, 3, 0, 30)},
		// The walkers roam 1200 m squares, the grid covers 800 m: positions
		// beyond it clamp to the border buckets.
		{"out-of-area", small, 60, 1, rwp(geo.NewRect(1200, 1200), 14, 0.5, 3, 0, 60)},
		{"static-peers", small, 60, 1, func(t *testing.T, s *rng.Stream) []mobility.Model {
			ms := rwp(small, 8, 0.5, 3, 0, 60)(t, s)
			for i := 0; i < 6; i++ {
				p := s.SplitIndex("relay", i)
				ms = append(ms, mobility.Static{P: geo.Point{X: p.Uniform(0, 800), Y: p.Uniform(0, 600)}})
			}
			return ms
		}},
		// Half the fares end at a hotspot far outside the area, which clamps
		// to the corner: consecutive corner fares are zero-length legs, and
		// a taxi that starts there begins on a zero-duration one.
		{"taxi-zero-legs", small, 60, 1, func(_ *testing.T, s *rng.Stream) []mobility.Model {
			cfg := mobility.TaxiConfig{
				Area:        small,
				Hotspots:    []mobility.Hotspot{{Center: geo.Point{X: -1e5, Y: -1e5}, Sigma: 1, Weight: 1}},
				UniformProb: 0.5,
				SpeedLo:     6, SpeedHi: 14,
				PauseLo: 5, PauseHi: 60,
			}
			ms := make([]mobility.Model, 14)
			for i := range ms {
				ms[i] = mobility.NewTaxi(cfg, s.SplitIndex("node", i))
			}
			return ms
		}},
		{"random-direction", small, 60, 1, func(_ *testing.T, s *rng.Stream) []mobility.Model {
			ms := make([]mobility.Model, 14)
			for i := range ms {
				ms[i] = mobility.NewRandomDirection(small, 0.5, 3, 0, 30, s.SplitIndex("node", i))
			}
			return ms
		}},
		{"random-walk", small, 60, 1, func(_ *testing.T, s *rng.Stream) []mobility.Model {
			ms := make([]mobility.Model, 14)
			for i := range ms {
				ms[i] = mobility.NewRandomWalk(small, 1, 4, 150, s.SplitIndex("node", i))
			}
			return ms
		}},
		{"map-route", small, 60, 1, func(t *testing.T, s *rng.Stream) []mobility.Model {
			g, err := graph.GridCity(4, 3, 250, 0, s.Split("map"))
			if err != nil {
				t.Fatal(err)
			}
			ms := make([]mobility.Model, 14)
			for i := range ms {
				if ms[i], err = mobility.NewMapRoute(g, 1, 4, 0, 60, s.SplitIndex("node", i)); err != nil {
					t.Fatal(err)
				}
			}
			return ms
		}},
		{"taxi-path", small, 60, 1, func(t *testing.T, s *rng.Stream) []mobility.Model {
			f := trace.Synthesize(trace.SynthesizeConfig{
				Taxi: mobility.TaxiConfig{
					Area:        small,
					Hotspots:    []mobility.Hotspot{{Center: geo.Point{X: 400, Y: 300}, Sigma: 150, Weight: 1}},
					UniformProb: 0.3,
					SpeedLo:     6, SpeedHi: 14,
					PauseLo: 5, PauseHi: 60,
				},
				Nodes: 14, Duration: 1300, SampleInterval: 30, Seed: uint64(s.IntN(1 << 30)),
			})
			ms, err := f.Models()
			if err != nil {
				t.Fatal(err)
			}
			return ms
		}},
		{"head-on", small, 50, 1, func(_ *testing.T, s *rng.Stream) []mobility.Model {
			// Pair k starts 451 + 0.5k m apart on its own row, so at tick 100
			// it is 151 + 0.5k m apart, just beyond the 150 m list radius,
			// and at tick 134, after 34 ticks at the 3 m/s closing bound,
			// within the 50 m range for k ≤ 2. The list's period is 33.
			var ms []mobility.Model
			x0 := s.Uniform(0, 100)
			for k := 0; k < 5; k++ {
				y := 50 + 110*float64(k)
				ms = append(ms,
					&scripted{p: geo.Point{X: x0, Y: y}, v: geo.Vec{X: 1.5}, until: math.Inf(1), max: 1.5},
					&scripted{p: geo.Point{X: x0 + 451 + 0.5*float64(k), Y: y}, v: geo.Vec{X: -1.5}, until: math.Inf(1), max: 1.5})
			}
			return ms
		}},
		{"teleport", small, 60, 1, func(_ *testing.T, s *rng.Stream) []mobility.Model {
			ms := make([]mobility.Model, 14)
			for i := range ms {
				ms[i] = teleporter{area: small, seed: uint64(s.IntN(1 << 30))}
			}
			return ms
		}},
	}
}

// trajectory walks models through ticks 0 … ticks of interval seconds and
// returns every position, tick by tick.
func trajectory(models []mobility.Model, ticks int, interval float64) [][]geo.Point {
	traj := make([][]geo.Point, ticks+1)
	for m := range traj {
		traj[m] = make([]geo.Point, len(models))
		for i, model := range models {
			traj[m][i] = model.Pos(float64(m) * interval)
		}
	}
	return traj
}

// teleporter jumps to a fresh point of its area every second: a model with
// no speed bound at all.
type teleporter struct {
	area geo.Rect
	seed uint64
}

func (m teleporter) Pos(t float64) geo.Point {
	s := rng.New(m.seed).SplitIndex("second", int(t))
	return geo.Point{X: s.Uniform(0, m.area.W()), Y: s.Uniform(0, m.area.H())}
}

func (teleporter) MaxSpeed() float64 { return math.Inf(1) }

// TestListNeverMissesAContact is the neighbour list's safety property. On
// every family of listWorlds, it builds the naive scan's list at every tick
// m from a twin fleet's positions and requires every pair within range on
// the ticks the list serves, m … m+K−1, to be listed. A list with a period
// (K ≥ 2) must also hold through the rebuild tick m+K, the one tick of
// margin boundTicks keeps, so a period one tick longer fails here: the head-on
// family brings an unlisted pair within range on tick m+K+1. The list's
// radius and period are pinned too: 3 × the range with a period of at least
// two ticks, or, for the teleporting fleet, the range itself with a period
// of one.
func TestListNeverMissesAContact(t *testing.T) {
	const ticks = 1200
	var checks, tight int
	for _, w := range listWorlds() {
		for seed := uint64(1); seed <= 3; seed++ {
			twin := w.models(t, rng.New(seed))
			sc := testScanner(t, w.models(t, rng.New(seed)), w.area, w.radio, w.interval, nil)
			l := &sc.list
			switch {
			case w.name == "teleport" && (l.period != 1 || l.radius != w.radio):
				t.Fatalf("%s: period %d at radius %v, want 1 at the %v m range", w.name, l.period, l.radius, w.radio)
			case w.name != "teleport" && (l.period < 2 || l.radius != 3*w.radio):
				t.Fatalf("%s: period %d at radius %v, want 2 or more at %v m", w.name, l.period, l.radius, 3*w.radio)
			}
			// The ticks served plus the margin, and one more, to find a
			// contact a period one tick longer would miss. A list with no
			// certificate serves its own tick only.
			last, past := int(l.period), int(l.period)+1
			if l.period < 2 {
				last, past = 0, 0
			}
			n, r2 := len(twin), w.radio*w.radio
			traj := trajectory(twin, ticks, w.interval)
			listed := make([]bool, n*n)
			for m := 0; m <= ticks; m++ {
				copy(sc.positions, traj[m])
				sc.ticks, l.due = int64(m+1), 0
				sc.listCands()
				sc.cands = sc.cands[:0]
				clear(listed)
				for _, p := range l.pairs {
					listed[int(p[0])*n+int(p[1])] = true
				}
				for j := 0; j <= past && m+j <= ticks; j++ {
					for a := 0; a < n; a++ {
						for b := a + 1; b < n; b++ {
							if listed[a*n+b] || traj[m+j][a].Dist2(traj[m+j][b]) > r2 {
								continue
							}
							if j > last {
								tight++ // a period one tick longer would miss this contact
								continue
							}
							t.Fatalf("%s seed %d: pair (%d,%d) is in range at tick %d but missing from the list built at tick %d (period %d, radius %v)",
								w.name, seed, a, b, m+j, m, l.period, l.radius)
						}
					}
					checks++
				}
			}
		}
	}
	t.Logf("%d list-tick checks; %d contacts one tick past the margin", checks, tight)
	if tight == 0 {
		t.Errorf("no unlisted pair came within range one tick past the margin: a longer period would pass")
	}
}

// TestParkTicksDeadlines pins the neighbour list's boundTicks on a pair's
// gap: the whole ticks a pair d metres apart with range r provably stays
// out of range while it closes at its two speed bounds, the bound the
// list's period is built on.
func TestParkTicksDeadlines(t *testing.T) {
	inf := math.Inf(1)
	cases := []struct {
		name     string
		va, vb   float64
		interval float64
		d, r     float64
		want     int64
	}{
		{"both-static", 0, 0, 1, 500, 50, maxPeriod},
		{"static-in-range", 0, 0, 1, 40, 50, 0},                     // in range
		{"static-at-range", 0, 0, 1, 50, 50, 0},                     // boundary counts as in range
		{"negative-speed-sum-guards", 0, -1, 1, 500, 50, maxPeriod}, // contract violation still safe
		{"in-range", 2, 2, 1, 40, 50, 0},
		{"exactly-at-range", 2, 2, 1, 50, 50, 0}, // lower bound < r ⇒ gap < 0
		{"just-outside", 2, 2, 1, 54, 50, 0},     // gap ≈ 4, c·I = 4 ⇒ K = 0
		{"one-tick-away", 2, 2, 1, 57, 50, 1},
		{"equal-speeds", 3, 3, 1, 650, 50, 99},    // gap ≈ 600, c = 6
		{"asymmetric", 0, 5, 1, 550, 50, 99},      // one mover carries the bound
		{"long-interval", 1, 1, 30, 6050, 50, 99}, // denominator scales with tick length
		{"teleporter", inf, 2, 1, 1e6, 50, 0},     // +Inf closing speed: a new list every tick
		{"crawler-caps", 1e-9, 0, 1, 1e6, 50, maxPeriod},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := boundTicks(geo.DistLowerBound(tc.d*tc.d)-tc.r, tc.va+tc.vb, tc.interval)
			if got != tc.want {
				t.Fatalf("boundTicks(d=%g, r=%g, v=%g+%g, I=%g) = %d, want %d",
					tc.d, tc.r, tc.va, tc.vb, tc.interval, got, tc.want)
			}
		})
	}
}

// TestParkTicksConservative pins the safety property of the neighbour
// list's boundTicks that the list's exactness rests on: over K ticks the
// pair can close at most K·c·I metres, which never reaches the
// (conservatively lower-bounded) gap.
func TestParkTicksConservative(t *testing.T) {
	for _, va := range []float64{0, 0.5, 2, 13.9} {
		for _, vb := range []float64{0.01, 1, 7} {
			for _, interval := range []float64{0.1, 1, 30} {
				for _, d := range []float64{51, 60, 200, 4000, 1e7} {
					const r = 50.0
					c := va + vb
					k := boundTicks(geo.DistLowerBound(d*d)-r, c, interval)
					// K ticks of closing at the bound must not reach the true
					// gap; the DistLowerBound slack (~d·1e-9) dominates every
					// rounding step in this chain.
					if maxClose := float64(k) * c * interval; maxClose > d-r {
						t.Fatalf("boundTicks(d=%g, c=%g, I=%g) = %d can close %g > gap %g",
							d, c, interval, k, maxClose, d-r)
					}
				}
			}
		}
	}
}

// walkScan drives a scanner over the fleet of w built from seed through
// ticks first … ticks as a scan does: each tick samples, after every
// position is set to NaN so that a node the tick leaves unsampled cannot
// pass for a sampled one, and rebuilds the list when due. visit then sees
// the tick with a twin fleet's true positions. A later first tick moves the
// builds to other ticks of the same trajectory.
func walkScan(t *testing.T, w listWorld, seed uint64, first, ticks int, visit func(m int, sc *scanner, truth []geo.Point)) {
	t.Helper()
	traj := trajectory(w.models(t, rng.New(seed)), ticks, w.interval)
	sc := testScanner(t, w.models(t, rng.New(seed)), w.area, w.radio, w.interval, nil)
	nan := geo.Point{X: math.NaN(), Y: math.NaN()}
	for m := first; m <= ticks; m++ {
		for i := range sc.positions {
			sc.positions[i] = nan
		}
		sc.ticks++
		sc.sample(float64(m) * w.interval)
		if sc.ticks >= sc.list.due {
			sc.build()
		}
		visit(m, sc, traj[m])
	}
}

// TestListSamplesEveryContact is member sampling's safety property: on
// every family and seed, a scan walked over a twin fleet's trajectory,
// from three first ticks so that its builds fall on different ticks, must
// have sampled both endpoints of every pair within range on every tick,
// the ticks the list serves, which sample its members alone, included.
func TestListSamplesEveryContact(t *testing.T) {
	const ticks = 1200
	var served, contacts int
	for _, w := range listWorlds() {
		r2 := w.radio * w.radio
		for seed := uint64(1); seed <= 3; seed++ {
			for first := 0; first < 3; first++ {
				walkScan(t, w, seed, first, ticks, func(m int, sc *scanner, truth []geo.Point) {
					for a := range truth {
						for b := a + 1; b < len(truth); b++ {
							if truth[a].Dist2(truth[b]) > r2 {
								continue
							}
							if sc.positions[a] != truth[a] || sc.positions[b] != truth[b] {
								t.Fatalf("%s seed %d from tick %d: pair (%d,%d) is in range at tick %d, but the tick sampled %v and %v (members: %v)",
									w.name, seed, first, a, b, m, sc.positions[a], sc.positions[b], sc.list.members)
							}
							if !sc.list.all {
								contacts++
							}
						}
					}
					if !sc.list.all {
						served++
					}
				})
			}
		}
	}
	t.Logf("%d served ticks held %d contacts", served, contacts)
	if contacts == 0 {
		t.Error("no contact on a tick that sampled members alone")
	}
}

// TestRankMatchesFineCells holds rank, which finds a fine cell's smallest id
// in the last build's buckets, to the cells of a twin fleet's true
// positions: on every tick of every family and seed, build or served, it
// must return the smallest id of every occupied fine cell, whose other
// nodes may be members or not.
func TestRankMatchesFineCells(t *testing.T) {
	const ticks = 600
	var served, nonMembers int
	for _, w := range listWorlds() {
		for seed := uint64(1); seed <= 3; seed++ {
			walkScan(t, w, seed, 0, ticks, func(m int, sc *scanner, truth []geo.Point) {
				want := map[int32]int32{}
				for i := len(truth) - 1; i >= 0; i-- {
					want[int32(sc.cells.CellIndex(truth[i]))] = int32(i)
				}
				for ci, id := range want {
					if got := sc.rank(ci); got != id {
						t.Fatalf("%s seed %d tick %d: rank(%d) = %d, want %d (build every %d ticks, members %v)",
							w.name, seed, m, ci, got, id, sc.list.period, sc.list.members)
					}
					if !sc.list.all && !sc.list.member[id] {
						nonMembers++
					}
				}
				if !sc.list.all {
					served++
				}
			})
		}
	}
	t.Logf("%d served ticks; %d ranks a non-member set", served, nonMembers)
	if nonMembers == 0 {
		t.Error("no cell's smallest id was a non-member on a served tick")
	}
}
