package trace

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"

	"sdsrp/internal/geo"
	"sdsrp/internal/mobility"
)

// The ONE simulator's ExternalMovement format: a header line
//
//	minTime maxTime minX maxX minY maxY [minZ maxZ]
//
// followed by one sample per line,
//
//	time nodeID xPos yPos
//
// sorted by time. These helpers let fleets round-trip with ONE so scenarios
// can be cross-validated against the simulator the paper used.

// ParseONE reads an external-movement trace into a fleet. Node ids are
// remapped to dense indices in first-appearance order; times are shifted so
// the earliest sample is t = 0 and coordinates so the area minimum is the
// origin.
func ParseONE(r io.Reader) (*Fleet, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 1024*1024)
	if !sc.Scan() {
		return nil, fmt.Errorf("trace: empty ONE movement file")
	}
	header := strings.Fields(sc.Text())
	if len(header) != 6 && len(header) != 8 {
		return nil, fmt.Errorf("trace: ONE header has %d fields, want 6 or 8", len(header))
	}
	hf := make([]float64, len(header))
	for i, f := range header {
		v, err := parseFinite(f)
		if err != nil {
			return nil, fmt.Errorf("trace: line 1: ONE header field %d: %v", i, err)
		}
		hf[i] = v
	}
	minT, minX, maxX, minY, maxY := hf[0], hf[2], hf[3], hf[4], hf[5]
	if maxX < minX || maxY < minY {
		return nil, fmt.Errorf("trace: ONE header area inverted")
	}
	if math.IsInf(maxX-minX, 0) || math.IsInf(maxY-minY, 0) {
		return nil, fmt.Errorf("trace: line 1: ONE header area overflows")
	}

	idx := map[string]int{}
	var paths [][]mobility.TimedPoint
	lineNo := 1
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 4 {
			return nil, fmt.Errorf("trace: line %d: want 4 fields, got %d", lineNo, len(fields))
		}
		t, err := parseFinite(fields[0])
		if err != nil {
			return nil, fmt.Errorf("trace: line %d: time: %v", lineNo, err)
		}
		x, err := parseFinite(fields[2])
		if err != nil {
			return nil, fmt.Errorf("trace: line %d: x: %v", lineNo, err)
		}
		y, err := parseFinite(fields[3])
		if err != nil {
			return nil, fmt.Errorf("trace: line %d: y: %v", lineNo, err)
		}
		id, ok := idx[fields[1]]
		if !ok {
			id = len(paths)
			idx[fields[1]] = id
			paths = append(paths, nil)
		}
		p := mobility.TimedPoint{T: t - minT, P: geo.Point{X: x - minX, Y: y - minY}}
		if math.IsInf(p.T, 0) || math.IsInf(p.P.X, 0) || math.IsInf(p.P.Y, 0) {
			return nil, fmt.Errorf("trace: line %d: sample overflows once shifted to the origin", lineNo)
		}
		paths[id] = append(paths[id], p)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("trace: line %d: %w", lineNo+1, err)
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("trace: ONE movement file has no samples")
	}
	for i := range paths {
		pts := paths[i]
		sort.SliceStable(pts, func(a, b int) bool { return pts[a].T < pts[b].T })
	}
	return &Fleet{
		Paths: paths,
		Area:  geo.Rect{Max: geo.Point{X: maxX - minX, Y: maxY - minY}},
	}, nil
}

// WriteONE writes the fleet in the ONE external-movement format, sampling
// is whatever the fleet's waypoints are (one line per waypoint), globally
// sorted by time as ONE requires.
func WriteONE(w io.Writer, f *Fleet) error {
	type row struct {
		t  float64
		id int
		p  geo.Point
	}
	var rows []row
	minT, maxT := 0.0, 0.0
	first := true
	for id, pts := range f.Paths {
		for _, tp := range pts {
			rows = append(rows, row{tp.T, id, tp.P})
			if first || tp.T < minT {
				minT = tp.T
			}
			if first || tp.T > maxT {
				maxT = tp.T
			}
			first = false
		}
	}
	if first {
		return fmt.Errorf("trace: empty fleet")
	}
	sort.SliceStable(rows, func(i, j int) bool {
		if rows[i].t != rows[j].t {
			return rows[i].t < rows[j].t
		}
		return rows[i].id < rows[j].id
	})
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "%g %g %g %g %g %g\n",
		minT, maxT, f.Area.Min.X, f.Area.Max.X, f.Area.Min.Y, f.Area.Max.Y)
	for _, r := range rows {
		fmt.Fprintf(bw, "%g %d %g %g\n", r.t, r.id, r.p.X, r.p.Y)
	}
	return bw.Flush()
}
