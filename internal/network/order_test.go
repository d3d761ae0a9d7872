package network

import (
	"fmt"
	"testing"

	"sdsrp/internal/geo"
	"sdsrp/internal/mobility"
	"sdsrp/internal/rng"
)

// TestEmitOrderMatchesGridPairs holds the scanner's one ordering routine,
// emitOrdered, to its reference, geo.Grid.Pairs: on a grid of the fine
// cells built from the tick's positions, Pairs' enumeration filtered to the
// in-range pairs is the naive emission order. Random fleets are clustered
// so that cells hold several nodes and every phase of the enumeration
// occurs, a fifth of the nodes stray outside the area and clamp to the
// border cells, and the fleets cover per-node ranges and cells larger than
// the range. Candidates arrive shuffled, all of them or a random subset (a
// real tick leaves out pairs already up), and are ranked both ways: from
// one pass over the nodes (emitRanked, the naive scan and the lazy sweep)
// and from the kinetic planner's buckets.
func TestEmitOrderMatchesGridPairs(t *testing.T) {
	area := geo.NewRect(600, 450)
	for _, tc := range []struct {
		name   string
		cell   float64
		radio  float64
		ranges bool
	}{
		{"uniform", 100, 100, false},
		{"per-node-ranges", 120, 60, true},
		{"cell-above-range", 170, 100, false},
	} {
		for seed := uint64(1); seed <= 20; seed++ {
			t.Run(fmt.Sprintf("%s-%d", tc.name, seed), func(t *testing.T) {
				s := rng.New(seed)
				const n = 70
				models := make([]mobility.Model, n)
				var ranges []float64
				if tc.ranges {
					ranges = make([]float64, n)
				}
				for i := range models {
					p := geo.Point{X: s.Uniform(0, 600), Y: s.Uniform(0, 450)}
					switch {
					case i%5 == 0: // out of the area
						p = geo.Point{X: s.Uniform(-300, 900), Y: s.Uniform(-300, 750)}
					case i%2 == 0: // a cluster, so cells are shared
						p = geo.Point{X: s.Uniform(250, 400), Y: s.Uniform(150, 300)}
					}
					models[i] = mobility.Static{P: p}
					if ranges != nil {
						ranges[i] = s.Uniform(20, 120)
					}
				}
				want, got := emitBothWays(t, models, area, tc.cell, tc.radio, ranges, s)
				if len(want) < 10 {
					t.Fatalf("only %d in-range pairs: the fleet is too sparse to test an order", len(want))
				}
				for way, g := range got {
					if len(g) != len(want) {
						t.Fatalf("%s: emitted %d pairs, Pairs gives %d", way, len(g), len(want))
					}
					for i := range want {
						if g[i] != want[i] {
							t.Fatalf("%s: emission %d is %v, Pairs gives %v", way, i, g[i], want[i])
						}
					}
				}
			})
		}
	}
}

// emitBothWays builds a scanner over models and returns the in-range pairs
// of a random subset, in the order geo.Grid.Pairs enumerates them, and the
// order emitOrdered brings the subset up in under each ranking.
func emitBothWays(t *testing.T, models []mobility.Model, area geo.Rect, cell, radio float64, ranges []float64, s *rng.Stream) (want []pairKey, got map[string][]pairKey) {
	t.Helper()
	sc := certScanner(t, models, area, cell, radio, 1, ranges)
	for i, m := range models {
		sc.positions[i] = m.Pos(0)
	}
	g := geo.NewGrid(area, cell, len(models))
	g.Update(sc.positions)
	all := s.Float64() < 0.5
	for _, p := range g.Pairs(sc.maxRange, nil) {
		if sc.pairInContact(int(p[0]), int(p[1])) && (all || s.Float64() < 0.6) {
			want = append(want, pairKey(p))
		}
	}
	got = make(map[string][]pairKey)
	for _, way := range []string{"one pass", "kinetic buckets"} {
		sc := certScanner(t, models, area, cell, radio, 1, ranges)
		for i, m := range models {
			sc.positions[i] = m.Pos(0)
		}
		sc.cands = append(sc.cands, want...)
		s.Shuffle(len(sc.cands), func(i, j int) { sc.cands[i], sc.cands[j] = sc.cands[j], sc.cands[i] })
		if way == "one pass" {
			sc.emitRanked()
		} else {
			k := newKinetic(sc)
			k.sampleAt(1, 0)
			k.emitUps(0)
		}
		got[way] = sc.ups
	}
	return want, got
}
