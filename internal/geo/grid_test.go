package geo

import (
	"slices"
	"sort"
	"testing"

	"sdsrp/internal/rng"
)

// bruteForcePairs computes all in-range pairs the slow way.
func bruteForcePairs(pos []Point, radius float64) [][2]int32 {
	var out [][2]int32
	r2 := radius * radius
	for i := 0; i < len(pos); i++ {
		for j := i + 1; j < len(pos); j++ {
			if pos[i].Dist2(pos[j]) <= r2 {
				out = append(out, [2]int32{int32(i), int32(j)})
			}
		}
	}
	return out
}

func sortPairs(p [][2]int32) {
	sort.Slice(p, func(i, j int) bool {
		if p[i][0] != p[j][0] {
			return p[i][0] < p[j][0]
		}
		return p[i][1] < p[j][1]
	})
}

func pairsEqual(a, b [][2]int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestGridMatchesBruteForce(t *testing.T) {
	s := rng.New(99)
	area := NewRect(4500, 3400)
	const n = 150
	const radius = 100.0
	g := NewGrid(area, radius, n)
	pos := make([]Point, n)
	for trial := 0; trial < 20; trial++ {
		for i := range pos {
			pos[i] = Point{s.Uniform(0, area.W()), s.Uniform(0, area.H())}
		}
		g.Update(pos)
		got := g.Pairs(radius, nil)
		want := bruteForcePairs(pos, radius)
		sortPairs(got)
		sortPairs(want)
		if !pairsEqual(got, want) {
			t.Fatalf("trial %d: grid pairs (%d) != brute force (%d)", trial, len(got), len(want))
		}
	}
}

func TestGridClusteredPositions(t *testing.T) {
	// All nodes in one spot: every pair must be reported exactly once.
	const n = 20
	area := NewRect(1000, 1000)
	g := NewGrid(area, 100, n)
	pos := make([]Point, n)
	for i := range pos {
		pos[i] = Point{500, 500}
	}
	g.Update(pos)
	got := g.Pairs(100, nil)
	if len(got) != n*(n-1)/2 {
		t.Fatalf("got %d pairs, want %d", len(got), n*(n-1)/2)
	}
	seen := map[[2]int32]bool{}
	for _, p := range got {
		if p[0] >= p[1] {
			t.Fatalf("pair %v not ordered", p)
		}
		if seen[p] {
			t.Fatalf("pair %v reported twice", p)
		}
		seen[p] = true
	}
}

func TestGridBoundaryPositions(t *testing.T) {
	// Nodes exactly on area edges and corners must not panic or be lost.
	area := NewRect(300, 300)
	pos := []Point{{0, 0}, {300, 300}, {300, 0}, {0, 300}, {299.9, 299.9}}
	g := NewGrid(area, 100, len(pos))
	g.Update(pos)
	got := g.Pairs(100, nil)
	want := bruteForcePairs(pos, 100)
	if len(got) != len(want) {
		t.Fatalf("got %d pairs, want %d", len(got), len(want))
	}
}

func TestGridOutOfBoundsClamped(t *testing.T) {
	// Positions slightly outside the area (trace jitter) are clamped to
	// border cells rather than crashing.
	area := NewRect(100, 100)
	pos := []Point{{-5, -5}, {-4, -4}, {105, 105}}
	g := NewGrid(area, 50, len(pos))
	g.Update(pos)
	got := g.Pairs(10, nil)
	if len(got) != 1 {
		t.Fatalf("got %d pairs, want 1", len(got))
	}
}

func TestGridReuseAcrossUpdates(t *testing.T) {
	s := rng.New(7)
	area := NewRect(500, 500)
	const n = 40
	g := NewGrid(area, 100, n)
	pos := make([]Point, n)
	var buf [][2]int32
	for tick := 0; tick < 50; tick++ {
		for i := range pos {
			pos[i] = Point{s.Uniform(0, 500), s.Uniform(0, 500)}
		}
		g.Update(pos)
		buf = g.Pairs(100, buf[:0])
		want := bruteForcePairs(pos, 100)
		if len(buf) != len(want) {
			t.Fatalf("tick %d: %d pairs, want %d", tick, len(buf), len(want))
		}
	}
}

// TestCellIDsListsEachCellAscending checks the per-cell accessor against the
// cell mapping: after each build, CellIDs(ci) holds exactly the ids whose
// CellIndex is ci, in ascending order, and nothing for an empty cell. A
// fifth of the items sit outside the area and clamp to the border cells,
// and the grid is rebuilt so that stale cells of an earlier build would
// show.
func TestCellIDsListsEachCellAscending(t *testing.T) {
	s := rng.New(5)
	area := NewRect(500, 400)
	const n = 60
	g := NewGrid(area, 90, n)
	pos := make([]Point, n)
	for build := 0; build < 20; build++ {
		want := make([][]int32, g.cols*g.rows)
		for i := range pos {
			pos[i] = Point{s.Uniform(0, 500), s.Uniform(0, 400)}
			if i%5 == 0 {
				pos[i] = Point{s.Uniform(-200, 700), s.Uniform(-200, 600)}
			}
			ci := g.CellIndex(pos[i])
			want[ci] = append(want[ci], int32(i))
		}
		g.Update(pos)
		for ci, ids := range want {
			if got := g.CellIDs(ci); !slices.Equal(got, ids) {
				t.Fatalf("build %d: CellIDs(%d) = %v, want %v", build, ci, got, ids)
			}
		}
	}
}

func BenchmarkGridPairs100(b *testing.B) {
	s := rng.New(1)
	area := NewRect(4500, 3400)
	const n = 100
	g := NewGrid(area, 100, n)
	pos := make([]Point, n)
	for i := range pos {
		pos[i] = Point{s.Uniform(0, 4500), s.Uniform(0, 3400)}
	}
	var buf [][2]int32
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g.Update(pos)
		buf = g.Pairs(100, buf[:0])
	}
}
