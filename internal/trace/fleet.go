package trace

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"

	"sdsrp/internal/geo"
	"sdsrp/internal/mobility"
	"sdsrp/internal/rng"
)

// Fleet is a set of per-node trajectories in local metres, ready to play
// back through mobility.Path. All trajectories share a common time origin
// of 0 and a common bounding area.
type Fleet struct {
	Paths [][]mobility.TimedPoint
	Area  geo.Rect
}

// Nodes returns the fleet size.
func (f *Fleet) Nodes() int { return len(f.Paths) }

// Models instantiates one playback mobility model per trajectory, all from
// one slab. The models take ownership of the fleet's paths: each is sorted
// by time in place and played back without a copy, so f.Paths must not be
// modified afterwards.
func (f *Fleet) Models() ([]mobility.Model, error) {
	out := make([]mobility.Model, len(f.Paths))
	paths := make([]mobility.Path, len(f.Paths))
	for i, pts := range f.Paths {
		if err := mobility.InitPath(&paths[i], pts); err != nil {
			return nil, fmt.Errorf("trace: node %d: %w", i, err)
		}
		out[i] = &paths[i]
	}
	return out, nil
}

// FromSamples builds a fleet from per-cab GPS samples. Coordinates are
// projected with proj, times are shifted so the earliest sample across all
// cabs is t = 0, and the area is the bounding box over every fix (padded by
// pad metres on each side, translated so the minimum corner is the origin).
// Cabs with no samples are skipped. maxNodes > 0 truncates the fleet (the
// paper uses "the first 200 taxis"); 0 keeps everything.
func FromSamples(cabs [][]Sample, proj Projection, pad float64, maxNodes int) (*Fleet, error) {
	if maxNodes > 0 && len(cabs) > maxNodes {
		cabs = cabs[:maxNodes]
	}
	var t0 int64
	first := true
	for _, c := range cabs {
		if len(c) == 0 {
			continue
		}
		if first || c[0].Time < t0 {
			t0 = c[0].Time
			first = false
		}
	}
	if first {
		return nil, fmt.Errorf("trace: no samples in any cab")
	}
	f := &Fleet{}
	var lo, hi geo.Point
	haveBounds := false
	for _, c := range cabs {
		if len(c) == 0 {
			continue
		}
		pts := make([]mobility.TimedPoint, 0, len(c))
		for _, s := range c {
			p := proj.ToMeters(s.Lat, s.Lon)
			pts = append(pts, mobility.TimedPoint{T: float64(s.Time - t0), P: p})
			if !haveBounds {
				lo, hi = p, p
				haveBounds = true
			} else {
				if p.X < lo.X {
					lo.X = p.X
				}
				if p.Y < lo.Y {
					lo.Y = p.Y
				}
				if p.X > hi.X {
					hi.X = p.X
				}
				if p.Y > hi.Y {
					hi.Y = p.Y
				}
			}
		}
		f.Paths = append(f.Paths, pts)
	}
	// Translate so the padded minimum corner is the origin.
	shift := geo.Vec{X: -(lo.X - pad), Y: -(lo.Y - pad)}
	for _, pts := range f.Paths {
		for i := range pts {
			pts[i].P = pts[i].P.Add(shift)
		}
	}
	f.Area = geo.Rect{Min: geo.Point{}, Max: geo.Point{X: hi.X - lo.X + 2*pad, Y: hi.Y - lo.Y + 2*pad}}
	return f, nil
}

// LoadDir reads every regular file in dir as a cab file (the dataset ships
// one `new_<id>.txt` per cab) in lexical order and assembles a fleet.
func LoadDir(dir string, proj Projection, pad float64, maxNodes int) (*Fleet, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	var cabs [][]Sample
	for _, name := range names {
		fp, err := os.Open(filepath.Join(dir, name))
		if err != nil {
			return nil, fmt.Errorf("trace: %w", err)
		}
		samples, perr := ParseCab(fp)
		fp.Close()
		if perr != nil {
			return nil, fmt.Errorf("trace: %s: %w", name, perr)
		}
		cabs = append(cabs, samples)
	}
	return FromSamples(cabs, proj, pad, maxNodes)
}

// SynthesizeConfig controls the synthetic EPFL substitute.
type SynthesizeConfig struct {
	Taxi           mobility.TaxiConfig
	Nodes          int
	Duration       float64 // seconds of trace
	SampleInterval float64 // GPS fix period (the real dataset averages ~60s)
	Seed           uint64
}

// DefaultSynthesizeConfig mirrors the paper's Table III: 200 taxis over the
// first 18 000 s, sampled every 30 s.
func DefaultSynthesizeConfig() SynthesizeConfig {
	return SynthesizeConfig{
		Taxi:           mobility.DefaultTaxiConfig(),
		Nodes:          200,
		Duration:       18000,
		SampleInterval: 30,
		Seed:           1,
	}
}

// Synthesize generates a fleet by driving Taxi models and sampling their
// positions at the GPS period, exactly as a cab's GPS logger would.
// Playback through mobility.Path therefore sees the same piecewise-linear
// approximation a real trace gives.
func Synthesize(cfg SynthesizeConfig) *Fleet {
	root := rng.New(cfg.Seed).Split("trace-synth")
	f := &Fleet{Area: cfg.Taxi.Area, Paths: make([][]mobility.TimedPoint, 0, max(cfg.Nodes, 0))}
	// Taxis are driven one after another, so one model and one stream serve
	// the whole fleet, re-initialised in place for each taxi.
	var taxi mobility.Taxi
	var stream rng.Stream
	samples := 0
	if n := cfg.Duration / cfg.SampleInterval; n >= 0 && n < math.MaxInt32 {
		samples = int(n) + 2 // the fix at 0, and one of slack for rounding
	}
	for i := 0; i < cfg.Nodes; i++ {
		root.SplitIndexInto(&stream, "taxi", i)
		mobility.InitTaxi(&taxi, cfg.Taxi, &stream)
		pts := make([]mobility.TimedPoint, 0, samples)
		for t := 0.0; t <= cfg.Duration; t += cfg.SampleInterval {
			pts = append(pts, mobility.TimedPoint{T: t, P: taxi.Pos(t)})
		}
		f.Paths = append(f.Paths, pts)
	}
	return f
}

// ToSamples converts a fleet back to GPS samples (for writing cabspotting
// files with WriteCab). epoch is the unix time of t = 0.
func (f *Fleet) ToSamples(proj Projection, epoch int64) [][]Sample {
	out := make([][]Sample, len(f.Paths))
	for i, pts := range f.Paths {
		samples := make([]Sample, len(pts))
		for j, tp := range pts {
			lat, lon := proj.ToGPS(tp.P)
			samples[j] = Sample{Lat: lat, Lon: lon, Occupied: j%2 == 0, Time: epoch + int64(tp.T)}
		}
		out[i] = samples
	}
	return out
}
