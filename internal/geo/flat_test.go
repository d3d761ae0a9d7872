package geo

import (
	"reflect"
	"testing"

	"sdsrp/internal/rng"
)

// gridLayout generates one tick of positions for the differential tests.
type gridLayout func(s *rng.Stream, area Rect, cell float64, pos []Point)

// gridLayouts covers the shapes the flat layout must bucket exactly like the
// per-cell-slice reference: uniform spread, tight hotspots (many items per
// cell), points outside the area (clamped into border cells), and points
// exactly on cell boundaries (the float-division edge).
var gridLayouts = map[string]gridLayout{
	"uniform": func(s *rng.Stream, area Rect, _ float64, pos []Point) {
		for i := range pos {
			pos[i] = Point{s.Uniform(area.Min.X, area.Max.X), s.Uniform(area.Min.Y, area.Max.Y)}
		}
	},
	"hotspot": func(s *rng.Stream, area Rect, cell float64, pos []Point) {
		var centres [3]Point
		for h := range centres {
			centres[h] = Point{s.Uniform(area.Min.X, area.Max.X), s.Uniform(area.Min.Y, area.Max.Y)}
		}
		for i := range pos {
			c := centres[s.IntN(len(centres))]
			pos[i] = Point{s.Normal(c.X, cell), s.Normal(c.Y, cell)}
		}
	},
	"clamped": func(s *rng.Stream, area Rect, cell float64, pos []Point) {
		for i := range pos {
			pos[i] = Point{
				s.Uniform(area.Min.X-3*cell, area.Max.X+3*cell),
				s.Uniform(area.Min.Y-3*cell, area.Max.Y+3*cell),
			}
		}
	},
	"boundary": func(s *rng.Stream, area Rect, cell float64, pos []Point) {
		cols := int(area.W()/cell) + 1
		rows := int(area.H()/cell) + 1
		for i := range pos {
			x := area.Min.X + float64(s.IntN(cols+1))*cell
			y := area.Min.Y + float64(s.IntN(rows+1))*cell
			if s.Bool(0.5) {
				x += s.Uniform(-1, 1)
			}
			pos[i] = Point{x, y}
		}
	},
}

// TestGridMatchesReference is the flat layout's differential test: over
// many seeds, layouts and cell sizes, Pairs must return the reference
// grid's exact sequence (order, not just the set — the scanner's up order
// and every trace depend on it). One grid instance is reused across every
// tick, so stale state from a previous build would show. Every eighth seed
// uses an area smaller than one cell, where every forward neighbour is out
// of bounds.
func TestGridMatchesReference(t *testing.T) {
	const n = 120
	for seed := uint64(1); seed <= 40; seed++ {
		s := rng.New(seed)
		area := Rect{Min: Point{-200, 300}, Max: Point{s.Uniform(600, 2500), 300 + s.Uniform(400, 2000)}}
		radius := s.Uniform(20, 120)
		cell := radius * s.Uniform(1, 2.5)
		if seed%8 == 0 {
			area.Max = Point{area.Min.X + cell/2, area.Min.Y + cell/3}
		}
		g := NewGrid(area, cell, n)
		ref := newRefGrid(area, cell, n)
		pos := make([]Point, n)
		var got, want [][2]int32
		for _, name := range []string{"uniform", "hotspot", "clamped", "boundary"} {
			for tick := 0; tick < 4; tick++ {
				gridLayouts[name](s, area, cell, pos)

				g.Update(pos)
				ref.Update(pos)
				got = g.Pairs(radius, got[:0])
				want = ref.Pairs(radius, want[:0])
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d %s tick %d: Pairs order diverges from reference:\n got %v\nwant %v",
						seed, name, tick, got, want)
				}
			}
		}
	}
}

// TestGridWarmUpdatePairsAllocatesNothing pins the Update contract: a
// rebuild plus a query into a warm buffer allocates nothing, including when
// consecutive builds occupy different cells.
func TestGridWarmUpdatePairsAllocatesNothing(t *testing.T) {
	s := rng.New(3)
	area := NewRect(3000, 2000)
	const n = 200
	g := NewGrid(area, 100, n)
	var snaps [4][]Point
	for k := range snaps {
		snaps[k] = make([]Point, n)
		gridLayouts["hotspot"](s, area, 100, snaps[k])
	}
	var buf [][2]int32
	for _, p := range snaps {
		g.Update(p)
		buf = g.Pairs(100, buf[:0])
	}
	k := 0
	allocs := testing.AllocsPerRun(100, func() {
		g.Update(snaps[k%len(snaps)])
		buf = g.Pairs(100, buf[:0])
		k++
	})
	if allocs != 0 {
		t.Fatalf("warm Update+Pairs allocated %.1f times per call, want 0", allocs)
	}
}
