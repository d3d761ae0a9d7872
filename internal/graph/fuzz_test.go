package graph

import (
	"math"
	"strings"
	"testing"
)

// FuzzParseEdgeList guards the map parser like the trace parsers: no
// panic on hostile input, and on success a non-empty graph whose vertices
// are all finite. Run with `go test -fuzz=FuzzParseEdgeList`; the seed
// corpus runs on every `go test`.
func FuzzParseEdgeList(f *testing.F) {
	f.Add("0 0 100 0\n100 0 100 100\n", 1.0)
	f.Add("", 1.0)
	f.Add("# map\n\n0 0 10 0\n", 0.0)
	f.Add("0 0 0.5 0\n", 1.0)   // snaps to one vertex
	f.Add("0 0 10 0 5\n", 1.0)  // extra field
	f.Add("NaN 0 10 0\n", 1.0)  // NaN vertex
	f.Add("0 0 1e400 0\n", 1.0) // out of range
	f.Add("0 0 10 0\n0 0 Inf 0\n", 1.0)
	f.Add(strings.Repeat("1 2 3 4\n", 200), 0.5)
	f.Add(strings.Repeat("9", 1_100_000), 1.0) // over the 1 MB line cap
	f.Fuzz(func(t *testing.T, in string, snap float64) {
		g, err := ParseEdgeList(strings.NewReader(in), snap)
		if err != nil {
			return
		}
		if g.Len() == 0 {
			t.Fatal("empty graph accepted")
		}
		for v := 0; v < g.Len(); v++ {
			if p := g.At(v); math.IsNaN(p.X) || math.IsNaN(p.Y) || math.IsInf(p.X, 0) || math.IsInf(p.Y, 0) {
				t.Fatalf("non-finite vertex %d accepted: %+v", v, p)
			}
		}
	})
}
