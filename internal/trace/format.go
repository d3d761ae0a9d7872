// Package trace handles mobility traces in the CRAWDAD epfl/mobility
// ("cabspotting") format the paper evaluates on, plus a synthetic generator
// that stands in for the real dataset (see DESIGN.md §4).
//
// The cabspotting format is one file per cab, each line
//
//	<latitude> <longitude> <occupancy> <unix time>
//
// ordered newest-first. The parser accepts any ordering and returns samples
// sorted oldest-first.
package trace

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Sample is one GPS fix of one cab.
type Sample struct {
	Lat, Lon float64
	Occupied bool
	Time     int64 // unix seconds
}

// ParseCab reads one cab file. Blank lines and lines starting with '#' are
// skipped; malformed lines are an error. Samples are returned sorted by
// ascending time.
func ParseCab(r io.Reader) ([]Sample, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 1024*1024)
	var out []Sample
	lineNo := 0
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
		lat, err := parseFinite(fields[0])
		if err != nil {
			return nil, fmt.Errorf("trace: line %d: latitude: %v", lineNo, err)
		}
		lon, err := parseFinite(fields[1])
		if err != nil {
			return nil, fmt.Errorf("trace: line %d: longitude: %v", lineNo, err)
		}
		occ, err := strconv.Atoi(fields[2])
		if err != nil || (occ != 0 && occ != 1) {
			return nil, fmt.Errorf("trace: line %d: occupancy must be 0 or 1", lineNo)
		}
		ts, err := strconv.ParseInt(fields[3], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("trace: line %d: time: %v", lineNo, err)
		}
		out = append(out, Sample{Lat: lat, Lon: lon, Occupied: occ == 1, Time: ts})
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("trace: line %d: %w", lineNo+1, err)
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Time < out[j].Time })
	return out, nil
}

// parseFinite parses a decimal number and rejects NaN and ±Inf, which
// strconv accepts but no coordinate or time in a trace can mean.
func parseFinite(field string) (float64, error) {
	v, err := strconv.ParseFloat(field, 64)
	if err == nil && (math.IsNaN(v) || math.IsInf(v, 0)) {
		err = fmt.Errorf("%q is not a finite number", field)
	}
	return v, err
}

// WriteCab writes samples in the cabspotting layout (newest first, as the
// original dataset ships).
func WriteCab(w io.Writer, samples []Sample) error {
	sorted := append([]Sample(nil), samples...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].Time > sorted[j].Time })
	bw := bufio.NewWriter(w)
	for _, s := range sorted {
		occ := 0
		if s.Occupied {
			occ = 1
		}
		if _, err := fmt.Fprintf(bw, "%.5f %.5f %d %d\n", s.Lat, s.Lon, occ, s.Time); err != nil {
			return err
		}
	}
	return bw.Flush()
}
