package geo

import (
	"math"
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

func TestExitTime(t *testing.T) {
	g := NewGrid(NewRect(1000, 1000), 100, 1)
	ci := g.CellIndex(Point{X: 210, Y: 240}) // box [200,300]×[200,300]
	inf, nan := math.Inf(1), math.NaN()
	for _, tc := range []struct {
		name string
		p    Point
		v    Vec
		want float64 // within 1e-6
	}{
		{"east", Point{X: 210, Y: 240}, Vec{X: 1}, 90},
		{"west", Point{X: 210, Y: 240}, Vec{X: -2}, 5},
		{"diagonal-north-first", Point{X: 210, Y: 240}, Vec{X: 1, Y: 1}, 60},
		{"south", Point{X: 210, Y: 240}, Vec{Y: -0.5}, 80},
		{"at-rest", Point{X: 210, Y: 240}, Vec{}, inf},
		{"on-edge", Point{X: 200, Y: 240}, Vec{X: 1}, 0},
		{"outside", Point{X: 150, Y: 240}, Vec{X: 1}, 0},
		{"nan-velocity", Point{X: 210, Y: 240}, Vec{X: nan}, 0},
		{"inf-velocity", Point{X: 210, Y: 240}, Vec{X: inf}, 0},
	} {
		got := g.ExitTime(tc.p, tc.v, ci)
		if math.IsInf(tc.want, 1) {
			if !math.IsInf(got, 1) {
				t.Errorf("%s: ExitTime = %g, want +Inf", tc.name, got)
			}
			continue
		}
		if got > tc.want || got < tc.want-1e-6 {
			t.Errorf("%s: ExitTime = %g, want just under %g", tc.name, got, tc.want)
		}
	}
}
