package graph

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"sdsrp/internal/geo"
	"sdsrp/internal/rng"
)

// GridCity generates a Manhattan street grid: cols × rows intersections
// spaced `spacing` metres apart, every adjacent pair connected. With
// dropProb > 0, that fraction of street segments is removed at random
// (construction, parks) while keeping the grid connected — removals that
// would disconnect it are re-inserted.
func GridCity(cols, rows int, spacing, dropProb float64, s *rng.Stream) (*Graph, error) {
	if cols < 2 || rows < 2 {
		return nil, fmt.Errorf("graph: grid needs at least 2x2 intersections")
	}
	if spacing <= 0 {
		return nil, fmt.Errorf("graph: spacing must be positive")
	}
	g := New()
	id := func(c, r int) int { return r*cols + c }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			g.AddVertex(geo.Point{X: float64(c) * spacing, Y: float64(r) * spacing})
		}
	}
	type seg struct{ a, b int }
	var segs []seg
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				segs = append(segs, seg{id(c, r), id(c+1, r)})
			}
			if r+1 < rows {
				segs = append(segs, seg{id(c, r), id(c, r+1)})
			}
		}
	}
	for _, sg := range segs {
		if dropProb > 0 && s != nil && s.Bool(dropProb) {
			continue
		}
		if err := g.AddEdge(sg.a, sg.b); err != nil {
			return nil, err
		}
	}
	// Repair connectivity by re-adding dropped segments until connected.
	if !g.Connected() {
		for _, sg := range segs {
			if g.Connected() {
				break
			}
			g.AddEdge(sg.a, sg.b)
		}
	}
	return g, nil
}

// ParseEdgeList reads a road graph from a simple text format: one segment
// per line, `x1 y1 x2 y2` in metres. Endpoints closer than snap metres to
// an existing vertex reuse it, so hand-written maps need not repeat exact
// coordinates. Blank lines and '#' comments are skipped.
func ParseEdgeList(r io.Reader, snap float64) (*Graph, error) {
	g := New()
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 1024*1024)
	lineNo := 0
	vertexAt := func(p geo.Point) int {
		if v := g.Nearest(p); v >= 0 && g.At(v).Dist(p) <= snap {
			return v
		}
		return g.AddVertex(p)
	}
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 4 {
			return nil, fmt.Errorf("graph: line %d: want 4 fields, got %d", lineNo, len(fields))
		}
		var vals [4]float64
		for i, f := range fields {
			v, err := strconv.ParseFloat(f, 64)
			if err == nil && (math.IsNaN(v) || math.IsInf(v, 0)) {
				err = fmt.Errorf("%q is not a finite coordinate", f)
			}
			if err != nil {
				return nil, fmt.Errorf("graph: line %d: %v", lineNo, err)
			}
			vals[i] = v
		}
		a := vertexAt(geo.Point{X: vals[0], Y: vals[1]})
		b := vertexAt(geo.Point{X: vals[2], Y: vals[3]})
		if a == b {
			continue // zero-length segment after snapping
		}
		if err := g.AddEdge(a, b); err != nil {
			return nil, fmt.Errorf("graph: line %d: %v", lineNo, err)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("graph: %w", err)
	}
	if g.Len() == 0 {
		return nil, fmt.Errorf("graph: empty edge list")
	}
	return g, nil
}

// WriteEdgeList writes the graph in the ParseEdgeList format.
func WriteEdgeList(w io.Writer, g *Graph) error {
	bw := bufio.NewWriter(w)
	for v := 0; v < g.Len(); v++ {
		for _, e := range g.adj[v] {
			if int(e.to) > v { // each undirected edge once
				a, b := g.At(v), g.At(int(e.to))
				if _, err := fmt.Fprintf(bw, "%g %g %g %g\n", a.X, a.Y, b.X, b.Y); err != nil {
					return err
				}
			}
		}
	}
	return bw.Flush()
}
