package graph

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"sdsrp/internal/geo"
	"sdsrp/internal/rng"
)

// square builds a 4-vertex unit square with one diagonal:
//
//	3---2
//	| / |
//	0---1
func square() *Graph {
	g := New()
	g.AddVertex(geo.Point{X: 0, Y: 0})
	g.AddVertex(geo.Point{X: 1, Y: 0})
	g.AddVertex(geo.Point{X: 1, Y: 1})
	g.AddVertex(geo.Point{X: 0, Y: 1})
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(2, 3)
	g.AddEdge(3, 0)
	g.AddEdge(0, 2)
	return g
}

func TestGraphBasics(t *testing.T) {
	g := square()
	if g.Len() != 4 || g.Edges() != 5 {
		t.Fatalf("len=%d edges=%d", g.Len(), g.Edges())
	}
	if !g.Connected() {
		t.Fatal("square not connected")
	}
	b := g.Bounds()
	if b.Min != (geo.Point{}) || b.Max != (geo.Point{X: 1, Y: 1}) {
		t.Fatalf("bounds = %v", b)
	}
}

func TestAddEdgeErrors(t *testing.T) {
	g := square()
	if err := g.AddEdge(0, 0); err == nil {
		t.Fatal("self-loop accepted")
	}
	if err := g.AddEdge(0, 9); err == nil {
		t.Fatal("out-of-range edge accepted")
	}
	// Duplicate edges are ignored, not doubled.
	before := g.Edges()
	if err := g.AddEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	if g.Edges() != before {
		t.Fatal("duplicate edge doubled")
	}
}

func TestShortestPath(t *testing.T) {
	g := square()
	// 0 -> 2 direct along the diagonal (length sqrt 2 < 2 via corners).
	path, length, ok := g.ShortestPath(0, 2)
	if !ok || len(path) != 2 || path[0] != 0 || path[1] != 2 {
		t.Fatalf("path = %v ok=%v", path, ok)
	}
	if math.Abs(length-math.Sqrt2) > 1e-12 {
		t.Fatalf("length = %v", length)
	}
	// 1 -> 3: two equal 2-hop routes; either is fine but length must be 2.
	_, length, ok = g.ShortestPath(1, 3)
	if !ok || math.Abs(length-2) > 1e-12 {
		t.Fatalf("1->3 length = %v", length)
	}
	// Trivial and invalid queries.
	if p, l, ok := g.ShortestPath(2, 2); !ok || l != 0 || len(p) != 1 {
		t.Fatal("self path wrong")
	}
	if _, _, ok := g.ShortestPath(0, 99); ok {
		t.Fatal("out-of-range target accepted")
	}
}

func TestShortestPathUnreachable(t *testing.T) {
	g := New()
	g.AddVertex(geo.Point{})
	g.AddVertex(geo.Point{X: 5})
	if _, _, ok := g.ShortestPath(0, 1); ok {
		t.Fatal("unreachable target reported reachable")
	}
	if g.Connected() {
		t.Fatal("disconnected graph reported connected")
	}
}

func TestNearest(t *testing.T) {
	g := square()
	if v := g.Nearest(geo.Point{X: 0.9, Y: 0.1}); v != 1 {
		t.Fatalf("Nearest = %d, want 1", v)
	}
	if v := New().Nearest(geo.Point{}); v != -1 {
		t.Fatalf("Nearest on empty = %d", v)
	}
}

func TestGridCity(t *testing.T) {
	g, err := GridCity(5, 4, 100, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if g.Len() != 20 {
		t.Fatalf("vertices = %d", g.Len())
	}
	// 4*4 horizontal + 5*3 vertical segments.
	if g.Edges() != 31 {
		t.Fatalf("edges = %d, want 31", g.Edges())
	}
	if !g.Connected() {
		t.Fatal("full grid not connected")
	}
	// Manhattan distance along streets: (0,0) to (4,3) = 700 m.
	_, length, ok := g.ShortestPath(0, g.Len()-1)
	if !ok || math.Abs(length-700) > 1e-9 {
		t.Fatalf("corner-to-corner = %v", length)
	}
}

func TestGridCityWithDrops(t *testing.T) {
	g, err := GridCity(8, 8, 50, 0.3, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	if !g.Connected() {
		t.Fatal("dropped grid not repaired to connectivity")
	}
	full, _ := GridCity(8, 8, 50, 0, nil)
	if g.Edges() >= full.Edges() {
		t.Fatal("no street segments actually dropped")
	}
}

func TestGridCityErrors(t *testing.T) {
	if _, err := GridCity(1, 5, 100, 0, nil); err == nil {
		t.Fatal("1-column grid accepted")
	}
	if _, err := GridCity(3, 3, 0, 0, nil); err == nil {
		t.Fatal("zero spacing accepted")
	}
}

func TestParseEdgeList(t *testing.T) {
	in := `# a triangle with a stub
0 0 100 0
100 0 100 100
100 100 0 0

0 0 -50 0
`
	g, err := ParseEdgeList(strings.NewReader(in), 1)
	if err != nil {
		t.Fatal(err)
	}
	if g.Len() != 4 || g.Edges() != 4 {
		t.Fatalf("len=%d edges=%d", g.Len(), g.Edges())
	}
	if !g.Connected() {
		t.Fatal("parsed graph not connected")
	}
}

func TestParseEdgeListSnapping(t *testing.T) {
	// The second segment's endpoint is 0.4 m from vertex (100,0): snapped.
	in := "0 0 100 0\n100.4 0 200 0\n"
	g, err := ParseEdgeList(strings.NewReader(in), 1)
	if err != nil {
		t.Fatal(err)
	}
	if g.Len() != 3 {
		t.Fatalf("vertices = %d, want 3 after snapping", g.Len())
	}
}

func TestParseEdgeListErrors(t *testing.T) {
	for _, in := range []string{"", "1 2 3\n", "a b c d\n"} {
		if _, err := ParseEdgeList(strings.NewReader(in), 1); err == nil {
			t.Fatalf("ParseEdgeList(%q) accepted", in)
		}
	}
}

// TestParseEdgeListRejectsNonFinite: a NaN vertex used to load and run to
// the horizon on NaN positions. Each coordinate is checked, by line.
func TestParseEdgeListRejectsNonFinite(t *testing.T) {
	for _, c := range []struct{ name, in, want string }{
		{"x1", "0 0 10 0\nNaN 0 10 0\n", "line 2"},
		{"y1", "0 +Inf 10 0\n", "line 1"},
		{"x2", "0 0 -Inf 0\n", "line 1"},
		{"y2", "# map\n0 0 10 0\n0 0 10 nan\n", "line 3"},
	} {
		_, err := ParseEdgeList(strings.NewReader(c.in), 1)
		if err == nil {
			t.Errorf("%s: %q accepted", c.name, c.in)
		} else if !strings.Contains(err.Error(), c.want) || !strings.Contains(err.Error(), "not a finite coordinate") {
			t.Errorf("%s: error %q, want %q and the reason", c.name, err, c.want)
		}
	}
}

func TestEdgeListRoundTrip(t *testing.T) {
	g, _ := GridCity(4, 3, 75, 0, nil)
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, g); err != nil {
		t.Fatal(err)
	}
	h, err := ParseEdgeList(&buf, 0.001)
	if err != nil {
		t.Fatal(err)
	}
	if h.Len() != g.Len() || h.Edges() != g.Edges() {
		t.Fatalf("round trip: %d/%d vs %d/%d", h.Len(), h.Edges(), g.Len(), g.Edges())
	}
	// Path lengths preserved.
	_, want, _ := g.ShortestPath(0, g.Len()-1)
	_, got, ok := h.ShortestPath(h.Nearest(g.At(0)), h.Nearest(g.At(g.Len()-1)))
	if !ok || math.Abs(got-want) > 1e-6 {
		t.Fatalf("path length %v vs %v", got, want)
	}
}

func TestDijkstraAgainstBruteForce(t *testing.T) {
	// Random connected graphs: compare Dijkstra with Floyd–Warshall.
	s := rng.New(9)
	for trial := 0; trial < 10; trial++ {
		const n = 12
		g := New()
		for i := 0; i < n; i++ {
			g.AddVertex(geo.Point{X: s.Uniform(0, 100), Y: s.Uniform(0, 100)})
		}
		for i := 1; i < n; i++ {
			g.AddEdge(i, s.IntN(i)) // spanning tree: connected
		}
		for k := 0; k < 10; k++ {
			g.AddEdge(s.IntN(n), (s.IntN(n-1)+1+s.IntN(n))%n)
		}
		// Floyd–Warshall over the same weights.
		const inf = math.MaxFloat64
		d := make([][]float64, n)
		for i := range d {
			d[i] = make([]float64, n)
			for j := range d[i] {
				if i != j {
					d[i][j] = inf
				}
			}
		}
		for v := 0; v < n; v++ {
			for _, e := range g.adj[v] {
				d[v][e.to] = e.w
			}
		}
		for k := 0; k < n; k++ {
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					if d[i][k] != inf && d[k][j] != inf && d[i][k]+d[k][j] < d[i][j] {
						d[i][j] = d[i][k] + d[k][j]
					}
				}
			}
		}
		for a := 0; a < n; a++ {
			for b := 0; b < n; b++ {
				_, got, ok := g.ShortestPath(a, b)
				if !ok {
					t.Fatalf("trial %d: %d->%d unreachable in connected graph", trial, a, b)
				}
				if math.Abs(got-d[a][b]) > 1e-9 {
					t.Fatalf("trial %d: %d->%d dijkstra %v vs floyd %v", trial, a, b, got, d[a][b])
				}
			}
		}
	}
}
