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
)

// certKinetic builds a kinetic planner over models on a grid of the given
// area and cell edge, radio range and scan interval, with no scan driven:
// the tests set the tick and sample positions themselves.
func certKinetic(t *testing.T, models []mobility.Model, area geo.Rect, cell, radio, interval float64) *kinetic {
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
		Area: area, Range: radio, Bandwidth: 100, ScanInterval: interval,
		CellSize: cell, Tracer: collector,
	}, hosts, models)
	if err != nil {
		t.Fatal(err)
	}
	return newKinetic(m)
}

// sampleAt makes tick the planner's current tick at time now, samples
// every node and assigns its bucket, as kinetic.check does for awake nodes.
func (s *kinetic) sampleAt(tick int64, now float64) {
	s.tick, s.now = tick, now
	for i := range s.m.models {
		s.samplePos(i, now)
		if ci := int32(s.m.grid.CellIndex(s.m.positions[i])); ci != s.cellOf[i] {
			s.moveCell(i, ci)
		}
	}
}

// scripted is a Legged test model on one linear leg: it moves from p at
// velocity v until until, then rests at the leg's end. max is its MaxSpeed.
type scripted struct {
	p     geo.Point
	v     geo.Vec
	until float64
	max   float64
}

func (m *scripted) Pos(t float64) geo.Point { return m.p.Add(m.v.Scale(math.Min(t, m.until))) }
func (m *scripted) MaxSpeed() float64       { return m.max }
func (m *scripted) Leg(t float64) (geo.Vec, float64) {
	if t >= m.until {
		return geo.Vec{}, math.Inf(1)
	}
	return m.v, m.until
}

// TestPairCertificateTable pins pairTicks at t = 0 (1 s ticks, range 50 m)
// on hand-made legs, beside the MaxSpeed bound alone, which is what models
// without legs and test rigs without models get.
func TestPairCertificateTable(t *testing.T) {
	inf := math.Inf(1)
	walker := func(x, y, vx, vy, until float64) mobility.Model {
		return &scripted{p: geo.Point{X: x, Y: y}, v: geo.Vec{X: vx, Y: vy}, until: until, max: 2}
	}
	for _, tc := range []struct {
		name      string
		a, b      mobility.Model
		bound     int64 // the motion bound alone
		certified int64 // with the legs
	}{
		// Head-on at the speed bound: the certificate is the bound.
		{"head-on", walker(0, 0, 2, 0, 1000), walker(460, 0, -2, 0, 1000), 102, 102},
		// Side by side at the same velocity: never closer until the legs end
		// at 700 s, then the bound from 300 m.
		{"convoy", walker(0, 0, 2, 0, 700), walker(0, 300, 2, 0, 700), 62, 762},
		// Passing 80 m abeam: never within range while the legs last, and
		// at 400 s, 1 003 m apart.
		{"miss", walker(0, 0, 2, 0, 400), walker(600, 80, -2, 0, 400), 138, 400 + 238},
		// A leg ends within the tick: the bound takes over almost at once.
		{"leg-ends", walker(0, 0, 2, 0, 0.25), walker(0, 300, 2, 0, 0.25), 62, 62},
		// A pause (v = 0) that holds for 90 s, then the bound.
		{"paused", walker(0, 0, 0, 0, 90), walker(0, 300, 0, 0, 90), 62, 90 + 62},
		// A zero-duration leg proves nothing beyond the bound.
		{"zero-duration", walker(0, 0, 2, 0, 1e-9), walker(0, 300, 0, 0, 1e-9), 62, 62},
		// A walker drifting away from a static peer, whose leg never ends:
		// 700 m apart when the walker's leg ends at 500 s.
		{"static-peer", walker(0, 0, -1, 0, 500), mobility.Static{P: geo.Point{X: 200}}, 74, 500 + 324},
		// Two static nodes out of range: the bound caps them already.
		{"static-pair", mobility.Static{}, mobility.Static{P: geo.Point{X: 200}}, maxParkTicks, maxParkTicks},
		// In range: 0 whatever the legs say.
		{"in-range", walker(0, 0, 2, 0, 1000), walker(40, 0, 2, 0, 1000), 0, 0},
		// A leg with no end in sight still closes head-on at the bound.
		{"endless", walker(0, 0, 2, 0, inf), walker(460, 0, -2, 0, inf), 102, 102},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := certKinetic(t, []mobility.Model{tc.a, tc.b}, geo.NewRect(3000, 3000), 100, 50, 1)
			s.sampleAt(1, 0)
			d2 := s.m.positions[0].Dist2(s.m.positions[1])
			bound := s.boundTicks(geo.DistLowerBound(d2)-50, s.speed[0]+s.speed[1])
			if bound != tc.bound {
				t.Fatalf("motion bound = %d ticks, want %d", bound, tc.bound)
			}
			if got := s.pairTicks(0, 1, d2, 50); got != tc.certified {
				t.Fatalf("pairTicks = %d ticks, want %d", got, tc.certified)
			}
		})
	}
}

// TestCellCertificateTable pins cellTicks at t = 0 (1 s ticks, 100 m cells)
// for a node 10 m from a cell's west edge and 40 m from its south edge.
func TestCellCertificateTable(t *testing.T) {
	for _, tc := range []struct {
		name      string
		v         geo.Vec
		until     float64
		bound     int64
		certified int64
	}{
		{"east", geo.Vec{X: 1}, 1000, 4, 89},         // leaves by the east edge at 90 s
		{"west", geo.Vec{X: -1}, 1000, 4, 9},         // leaves by the west edge at 10 s
		{"north", geo.Vec{Y: 0.5}, 1000, 4, 119},     // leaves by the north edge at 120 s
		{"short-leg", geo.Vec{X: 1}, 20, 4, 20 + 14}, // 30 m inside when the leg ends, then the bound at 2 m/s
		{"paused", geo.Vec{}, 300, 4, 300 + 4},
		{"endless-rest", geo.Vec{}, math.Inf(1), 4, maxParkTicks},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := &scripted{p: geo.Point{X: 210, Y: 240}, v: tc.v, until: tc.until, max: 2}
			s := certKinetic(t, []mobility.Model{m}, geo.NewRect(3000, 3000), 100, 50, 1)
			s.sampleAt(1, 0)
			d := s.m.grid.BoundaryDist(s.m.positions[0], int(s.cellOf[0]))
			if bound := s.boundTicks(d-(d*1e-9+1e-9), s.speed[0]); bound != tc.bound {
				t.Fatalf("motion bound = %d ticks, want %d", bound, tc.bound)
			}
			if got := s.cellTicks(0); got != tc.certified {
				t.Fatalf("cellTicks = %d ticks, want %d", got, tc.certified)
			}
		})
	}
}

// certWorld is one family of the certificate property test: a fleet of
// real models on a grid whose area may be smaller than the area they roam.
type certWorld struct {
	name     string
	area     geo.Rect // the grid's
	cell     float64
	radio    float64
	interval float64
	models   func(t *testing.T, s *rng.Stream) []mobility.Model
}

func certWorlds() []certWorld {
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
	return []certWorld{
		{"rwp-pauses", small, 60, 60, 1, rwp(small, 14, 0.5, 3, 0, 120)},
		{"rwp-table2-speed", small, 75, 50, 1, rwp(small, 14, 2, 2, 0, 0)},
		{"rwp-long-ticks", small, 60, 60, 2.5, rwp(small, 14, 0.5, 3, 0, 30)},
		// The walkers roam 1200 m squares, the grid covers 800 m: positions
		// beyond it clamp to the border buckets.
		{"out-of-area", small, 60, 60, 1, rwp(geo.NewRect(1200, 1200), 14, 0.5, 3, 0, 60)},
		{"static-peers", small, 60, 60, 1, func(t *testing.T, s *rng.Stream) []mobility.Model {
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
		{"taxi-zero-legs", small, 60, 60, 1, func(_ *testing.T, s *rng.Stream) []mobility.Model {
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
		{"random-direction", small, 60, 60, 1, func(_ *testing.T, s *rng.Stream) []mobility.Model {
			ms := make([]mobility.Model, 14)
			for i := range ms {
				ms[i] = mobility.NewRandomDirection(small, 0.5, 3, 0, 30, s.SplitIndex("node", i))
			}
			return ms
		}},
		{"random-walk", small, 60, 60, 1, func(_ *testing.T, s *rng.Stream) []mobility.Model {
			ms := make([]mobility.Model, 14)
			for i := range ms {
				ms[i] = mobility.NewRandomWalk(small, 1, 4, 150, s.SplitIndex("node", i))
			}
			return ms
		}},
		{"map-route", small, 70, 60, 1, func(t *testing.T, s *rng.Stream) []mobility.Model {
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
	}
}

// TestCertificatesNeverSkipAContact is the certificates' safety property.
// At every tick of every family and seed it computes each pair's deadline K
// (pairTicks) and each node's cell deadline (cellTicks), and steps a twin
// fleet, built from the same seeds, through the ticks the deadline skips
// plus the wake tick itself, the one-tick margin every deadline keeps: the
// pair must stay out of range, and the node's CellIndex unchanged. A
// deadline one tick longer fails here. The certificates must also beat the
// MaxSpeed bound in a fair share of cases, and the families must reach
// pauses, leg ends inside a deadline, clamped positions and static peers.
func TestCertificatesNeverSkipAContact(t *testing.T) {
	const ticks, never = 1200, math.MaxInt32
	var pairs, pairWins, cells, cellWins, paused, legEnds, clamped, statics int
	for _, w := range certWorlds() {
		for seed := uint64(1); seed <= 3; seed++ {
			twin := w.models(t, rng.New(seed))
			s := certKinetic(t, w.models(t, rng.New(seed)), w.area, w.cell, w.radio, w.interval)
			n, g, r2 := len(twin), s.m.grid, w.radio*w.radio
			// Walk the twin forward once; nextCell[m][i] is the first tick
			// after m at which node i's bucket differs from its bucket at m,
			// nextIn[m][p] the first tick after m at which pair p is in range
			// (never when neither happens within the run).
			traj := make([][]geo.Point, ticks+1)
			for m := range traj {
				traj[m] = make([]geo.Point, n)
				for i, model := range twin {
					traj[m][i] = model.Pos(float64(m) * w.interval)
				}
			}
			nextCell := make([][]int32, ticks+1)
			nextIn := make([][]int32, ticks+1)
			for m := ticks; m >= 0; m-- {
				nextCell[m] = make([]int32, n)
				nextIn[m] = make([]int32, 0, n*(n-1)/2)
				for i := 0; i < n; i++ {
					switch {
					case m == ticks:
						nextCell[m][i] = never
					case g.CellIndex(traj[m+1][i]) != g.CellIndex(traj[m][i]):
						nextCell[m][i] = int32(m + 1)
					default:
						nextCell[m][i] = nextCell[m+1][i]
					}
					for j := i + 1; j < n; j++ {
						p := len(nextIn[m])
						switch {
						case m == ticks:
							nextIn[m] = append(nextIn[m], never)
						case traj[m+1][i].Dist2(traj[m+1][j]) <= r2:
							nextIn[m] = append(nextIn[m], int32(m+1))
						default:
							nextIn[m] = append(nextIn[m], nextIn[m+1][p])
						}
					}
				}
			}
			for m := 0; m <= ticks; m++ {
				now := float64(m) * w.interval
				s.sampleAt(int64(m+1), now)
				for i := 0; i < n; i++ {
					pos := s.m.positions[i]
					if pos != traj[m][i] {
						t.Fatalf("%s seed %d: twin models diverge at tick %d", w.name, seed, m)
					}
					k := s.cellTicks(i)
					if int64(m)+k >= int64(nextCell[m][i]) {
						t.Fatalf("%s seed %d tick %d: node %d parks %d ticks on its bucket but leaves it at tick %d",
							w.name, seed, m, i, k, nextCell[m][i])
					}
					cells++
					d := g.BoundaryDist(pos, int(s.cellOf[i]))
					if k > s.boundTicks(d-(d*1e-9+1e-9), s.speed[i]) {
						cellWins++
					}
					if d <= 0 {
						clamped++
					}
					if v, left, ok := s.legOf(i); ok && v == (geo.Vec{}) && left < math.Inf(1) {
						paused++
					}
				}
				p := 0
				for i := 0; i < n; i++ {
					for j := i + 1; j < n; j++ {
						d2 := s.m.positions[i].Dist2(s.m.positions[j])
						k := s.pairTicks(i, j, d2, w.radio)
						if int64(m)+k >= int64(nextIn[m][p]) {
							t.Fatalf("%s seed %d tick %d: pair (%d,%d) parks %d ticks but is in range at tick %d",
								w.name, seed, m, i, j, k, nextIn[m][p])
						}
						p++
						if d2 <= r2 {
							continue
						}
						pairs++
						if k > s.boundTicks(geo.DistLowerBound(d2)-w.radio, s.speed[i]+s.speed[j]) {
							pairWins++
						}
						_, li, _ := s.legOf(i)
						_, lj, _ := s.legOf(j)
						if min(li, lj) < float64(k)*w.interval {
							legEnds++
						}
						if s.speed[i] == 0 || s.speed[j] == 0 {
							statics++
						}
					}
				}
			}
		}
	}
	t.Logf("pairs: %d out of range, certificate beat the bound on %d (%.2f), %d spanned a leg end, %d with a static peer",
		pairs, pairWins, float64(pairWins)/float64(pairs), legEnds, statics)
	t.Logf("cells: %d, certificate beat the bound on %d (%.2f); %d paused, %d clamped",
		cells, cellWins, float64(cellWins)/float64(cells), paused, clamped)
	if float64(pairWins) < 0.3*float64(pairs) || float64(cellWins) < 0.3*float64(cells) {
		t.Errorf("certificates beat the MaxSpeed bound on too few cases")
	}
	if paused == 0 || legEnds == 0 || clamped == 0 || statics == 0 {
		t.Errorf("a family lost its coverage: %d paused, %d leg ends, %d clamped, %d static", paused, legEnds, clamped, statics)
	}
}
