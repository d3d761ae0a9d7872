package network

import (
	"fmt"
	"math"
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
// most pairs' range, up to five times it, sized by one node's long radio.
// The nodes drift in straight lines, and each fleet is checked on the
// list's build tick and on the last tick the list serves, where the cells
// are ranked from buckets the nodes have moved up to 160 m away from. Every
// model reports 5 m/s, so the wide cells' list, of radius 1 500 m, serves
// about 100 ticks; their nodes drift at up to 1 m/s, so that the cluster
// still holds in-range pairs on its last served tick. Candidates arrive
// shuffled, all of them or a random subset (a real tick leaves out pairs
// already up).
func TestEmitOrderMatchesGridPairs(t *testing.T) {
	for _, tc := range []struct {
		name    string
		scale   float64 // of the area and the fleet's layout
		cluster float64 // the cluster's edge
		radio   float64
		ranges  bool
		long    float64 // one node's range, which sets the cells, when not 0
		drift   float64 // the nodes' top speed
	}{
		{"uniform", 1, 150, 100, false, 0, 5},
		{"per-node-ranges", 1, 150, 60, true, 0, 5},
		{"cell-above-range", 1, 150, 100, false, 170, 5},
		{"wide-cells", 5, 300, 100, false, 500, 1},
	} {
		for seed := uint64(1); seed <= 20; seed++ {
			t.Run(fmt.Sprintf("%s-%d", tc.name, seed), func(t *testing.T) {
				s := rng.New(seed)
				const n = 70
				k := tc.scale
				area := geo.NewRect(600*k, 450*k)
				models := make([]mobility.Model, n)
				var ranges []float64
				if tc.ranges || tc.long != 0 {
					ranges = make([]float64, n)
				}
				for i := range models {
					p := geo.Point{X: s.Uniform(0, 600*k), Y: s.Uniform(0, 450*k)}
					switch {
					case i%5 == 0: // out of the area
						p = geo.Point{X: s.Uniform(-300*k, 900*k), Y: s.Uniform(-300*k, 750*k)}
					case i%2 == 0: // a cluster, so cells are shared
						p = geo.Point{X: s.Uniform(250*k, 250*k+tc.cluster), Y: s.Uniform(150*k, 150*k+tc.cluster)}
					}
					heading, speed := s.Uniform(0, 2*math.Pi), s.Uniform(0, tc.drift)
					v := geo.Vec{X: speed * math.Cos(heading), Y: speed * math.Sin(heading)}
					models[i] = &scripted{p: p, v: v, until: math.Inf(1), max: 5}
					switch {
					case tc.ranges:
						ranges[i] = s.Uniform(20, 120)
					case tc.long != 0:
						ranges[i] = tc.radio
					}
				}
				if tc.long != 0 {
					ranges[0] = tc.long
				}
				sc := testScanner(t, models, area, tc.radio, 1, ranges)
				if sc.list.period < 2 {
					t.Fatalf("the list is rebuilt every tick: nothing to serve")
				}
				for _, tick := range []int{0, int(sc.list.period) - 1} {
					want, got := emitAt(t, models, area, tc.radio, ranges, tick, s)
					if len(want) < 10 {
						t.Fatalf("tick %d: only %d in-range pairs: the fleet is too sparse to test an order", tick, len(want))
					}
					if len(got) != len(want) {
						t.Fatalf("tick %d: emitted %d pairs, Pairs gives %d", tick, len(got), len(want))
					}
					for i := range want {
						if got[i] != want[i] {
							t.Fatalf("tick %d: emission %d is %v, Pairs gives %v", tick, i, got[i], want[i])
						}
					}
				}
			})
		}
	}
}

// emitAt builds a scanner over models, samples its first tick at time 0,
// the list's build, and, when tick is later, samples that tick, which the
// list serves, the members alone. It returns the in-range pairs of a random
// subset at tick, in the order geo.Grid.Pairs enumerates them from the
// fleet's true positions, and the order emitOrdered brings the subset up
// in.
func emitAt(t *testing.T, models []mobility.Model, area geo.Rect, radio float64, ranges []float64, tick int, s *rng.Stream) (want, got []pairKey) {
	t.Helper()
	sc := testScanner(t, models, area, radio, 1, ranges)
	sc.sample(0)
	sc.build()
	if tick > 0 {
		sc.ticks = int64(tick)
		sc.sample(float64(tick))
		if sc.list.all {
			t.Fatalf("tick %d sampled every node", tick)
		}
	}
	truth := make([]geo.Point, len(models))
	for i, m := range models {
		truth[i] = m.Pos(float64(tick))
	}
	g := geo.NewGrid(area, sc.maxRange, len(models))
	g.Update(truth)
	all := s.Float64() < 0.5
	for _, p := range g.Pairs(sc.maxRange, nil) {
		r := sc.pairRange(int(p[0]), int(p[1]))
		if truth[p[0]].Dist2(truth[p[1]]) <= r*r && (all || s.Float64() < 0.6) {
			want = append(want, pairKey(p))
		}
	}
	sc.cands = append(sc.cands, want...)
	s.Shuffle(len(sc.cands), func(i, j int) { sc.cands[i], sc.cands[j] = sc.cands[j], sc.cands[i] })
	sc.emitOrdered()
	return want, sc.ups
}
