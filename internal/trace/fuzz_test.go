package trace

import (
	"math"
	"strings"
	"testing"
)

// Fuzzing guards the three text parsers against panics, quadratic
// behaviour and non-finite numbers on hostile input; run with
// `go test -fuzz=FuzzParseCab` etc. for deep exploration — the seed corpus
// below runs on every `go test`.

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

func FuzzParseCab(f *testing.F) {
	f.Add(cabFile)
	f.Add("")
	f.Add("# comment only\n")
	f.Add("37.7 -122.4 0 100\n37.8 -122.5 1 90\n")
	f.Add("nan inf 0 100\n")
	f.Add("37.7 -122.4 2 100\n")
	f.Add(strings.Repeat("37.7 -122.4 0 100\n", 100))
	f.Add("37.7 -122.4 0 100 extra\n")           // extra fields
	f.Add(strings.Repeat("7", 1_100_000) + "\n") // over the 1 MB line cap
	f.Fuzz(func(t *testing.T, in string) {
		samples, err := ParseCab(strings.NewReader(in))
		if err != nil {
			return
		}
		// On success the samples must be finite and time-sorted.
		for i, s := range samples {
			if !finite(s.Lat) || !finite(s.Lon) {
				t.Fatalf("non-finite sample %d accepted: %+v", i, s)
			}
			if i > 0 && s.Time < samples[i-1].Time {
				t.Fatalf("unsorted output at %d", i)
			}
		}
	})
}

func FuzzParseONE(f *testing.F) {
	f.Add(oneTrace)
	f.Add("")
	f.Add("0 1 0 10 0 10\n")
	f.Add("0 1 0 10 0 10\n5 a 3 4\n")
	f.Add("0 1 0 10 0 10 0 0\n5 a 3 4\n# c\n\n6 b 1 2\n")
	f.Add("0 1 0 10 0 10\n5 a 3 4 7\n")                      // extra fields
	f.Add("0 1 0 10 0 10\n" + strings.Repeat("1 ", 600_000)) // oversized record
	f.Add("0 1 0 10 0 10\n5 a NaN 4\n")                      // NaN position
	f.Add("0 1 0 Inf 0 10\n5 a 3 4\n")                       // endless area
	f.Add("0 1 -1e308 1e308 0 10\n5 a 3 4\n")                // area overflows
	f.Add("-1e308 1 0 10 0 10\n1e308 a 3 4\n")               // time overflows
	f.Fuzz(func(t *testing.T, in string) {
		fleet, err := ParseONE(strings.NewReader(in))
		if err != nil {
			return
		}
		// On success every path is finite, time-sorted and non-empty, the
		// area is finite, and models can be built.
		if !finite(fleet.Area.Max.X) || !finite(fleet.Area.Max.Y) {
			t.Fatalf("non-finite area accepted: %+v", fleet.Area)
		}
		for i, pts := range fleet.Paths {
			if len(pts) == 0 {
				t.Fatalf("empty path %d accepted", i)
			}
			for j, p := range pts {
				if !finite(p.T) || !finite(p.P.X) || !finite(p.P.Y) {
					t.Fatalf("non-finite sample %d of path %d accepted: %+v", j, i, p)
				}
				if j > 0 && p.T < pts[j-1].T {
					t.Fatalf("unsorted path %d", i)
				}
			}
		}
		if _, err := fleet.Models(); err != nil {
			t.Fatalf("parsed fleet unusable: %v", err)
		}
	})
}

func FuzzParseContacts(f *testing.F) {
	f.Add(contactTrace)
	f.Add("")
	f.Add("# comments only\n\n")
	f.Add("0 1 10 60\n1 2 30 90\n")
	f.Add("0 0 10 20\n")                  // self contact
	f.Add("0 1 20 10\n")                  // inverted interval
	f.Add("0 1 10 20 5\n")                // extra fields
	f.Add("0 1 10\n")                     // truncated record
	f.Add(strings.Repeat("z", 1_100_000)) // over the 1 MB line cap
	f.Add("-1 1 10 20\n")                 // negative id
	f.Add("0 1 NaN 5\n")                  // NaN start
	f.Add("0 1 0 Inf\n")                  // endless contact
	f.Fuzz(func(t *testing.T, in string) {
		cs, err := ParseContacts(strings.NewReader(in))
		if err != nil {
			return
		}
		// On success every contact is well-formed and finite, and MaxNode
		// covers it.
		max := MaxNode(cs)
		for i, c := range cs {
			if c.A < 0 || c.B < 0 || c.A == c.B || c.End <= c.Start || !finite(c.Start) || !finite(c.End) {
				t.Fatalf("malformed contact %d accepted: %+v", i, c)
			}
			if c.A > max || c.B > max {
				t.Fatalf("MaxNode %d misses contact %d: %+v", max, i, c)
			}
		}
	})
}
