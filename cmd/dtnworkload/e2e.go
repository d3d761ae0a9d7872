package main

import (
	"fmt"
	"runtime"
	"slices"
	"time"

	"sdsrp/internal/config"
	"sdsrp/internal/experiment"
	"sdsrp/internal/world"
)

// minIters is the fewest timed iterations a run makes, whatever the time
// budget: two would already expose a fingerprint that varies.
const minIters = 3

// another reports whether a run starts iteration it: always before
// minIters, and after that only if one more iteration, as long as the last
// one, would end within seconds of start.
func another(it int, start time.Time, last time.Duration, seconds float64) bool {
	return it < minIters || (time.Since(start)+last).Seconds() <= seconds
}

// outcome is what one run reports besides its metrics: worlds attempted
// and worlds that failed a build, a run or a check.
type outcome struct {
	attempted int
	failed    []bool
	problems  []string
	note      string // for the reader of stderr, not part of the result
}

func newOutcome(worlds int) *outcome {
	return &outcome{attempted: worlds, failed: make([]bool, worlds)}
}

// fail marks world k failed; k < 0 fails every world.
func (o *outcome) fail(k int, format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
	if k < 0 {
		for i := range o.failed {
			o.failed[i] = true
		}
		return
	}
	o.failed[k] = true
}

func (o *outcome) failures() int {
	n := 0
	for _, f := range o.failed {
		if f {
			n++
		}
	}
	return n
}

// checkRepeat compares an iteration's per-world fingerprints with the
// first iteration's.
func (o *outcome) checkRepeat(first, got []string) {
	for k, fp := range got {
		if fp != first[k] {
			o.fail(k, "world %d: fingerprint %s differs from the first iteration's %s", k+1, fp, first[k])
		}
	}
}

// checkPins compares per-world fingerprints with the pinned ones, at the
// pinned seed and full horizon.
func (o *outcome) checkPins(wl workload, got []string, seed uint64, scale float64) {
	if seed != pinnedSeed || scale != 1 {
		return
	}
	want := pinned[wl.name]
	if len(want) != len(got) {
		o.fail(-1, "%d pinned fingerprints for %d worlds", len(want), len(got))
		return
	}
	for k, fp := range got {
		if fp != want[k] {
			o.fail(k, "world %d: fingerprint %s differs from the pinned %s", k+1, fp, want[k])
		}
	}
}

// runWorld builds and runs sc from a freshly collected heap, as in a new
// process, and returns the result, the Build time, the scenario-to-Result
// time and the live heap after a forced collection at the end of the run,
// with the world still reachable. Both collections are outside the timer.
func runWorld(sc config.Scenario) (res world.Result, build, total time.Duration, heap uint64, err error) {
	runtime.GC()
	start := time.Now()
	w, err := world.Build(sc)
	if err != nil {
		return res, 0, 0, 0, err
	}
	build = time.Since(start)
	res, err = w.Run()
	total = time.Since(start)
	if err != nil {
		return res, build, total, 0, err
	}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	runtime.KeepAlive(w)
	return res, build, total, ms.HeapAlloc, nil
}

// timings collects a run's samples. A world's time is its median over
// iterations, and the run's times are scaled to the reference speed by its
// calibration samples: the host is shared, and how fast it runs the process
// drifts by a third within an hour, moving every sample alike.
type timings struct {
	worlds [][]float64 // [world][iteration] scenario-to-Result seconds
	extra  []float64   // per iteration, sweep time outside the worlds
	builds []float64   // per iteration, Σ world.Build seconds
	cal    calibrator
}

// metrics returns the end-to-end metrics and notes the calibration behind
// the scaled times in o.
func (t *timings) metrics(heap uint64, o *outcome) []metric {
	wall := median(t.extra) // the sweep's own time; 0 for scenario workloads
	for _, xs := range t.worlds {
		wall += median(xs)
	}
	setup := median(t.builds)
	scale := t.cal.scale()
	o.note = fmt.Sprintf("calibration %.5f s over %d samples (reference %.3f s), unscaled wall %.4f s, setup %.4f s",
		median(t.cal.samples), len(t.cal.samples), calibRef, wall, setup)
	return []metric{
		{"wall_s", wall * scale, "s"},
		{"setup_s", setup * scale, "s"},
		{"heap_mb", float64(heap) / 1e6, "MB"},
	}
}

// endToEnd measures wl with tracing off: timed iterations of the whole
// workload for at most seconds (at least minIters), checking every world's
// fingerprint on every iteration.
func endToEnd(wl workload, seed uint64, seconds, scale float64) ([]metric, *outcome) {
	if wl.sweep != "" {
		return sweepEndToEnd(wl, seed, seconds, scale)
	}
	scs := wl.scenarios(seed, scale)
	o := newOutcome(len(scs))
	t := timings{worlds: make([][]float64, len(scs))}
	var heap uint64
	var first []string
	var last time.Duration
	start := time.Now()
	for it := 0; another(it, start, last, seconds); it++ {
		itStart := time.Now()
		fps := make([]string, len(scs))
		var builds time.Duration
		for k, sc := range scs {
			t.cal.between()
			res, build, total, h, err := runWorld(sc)
			if err != nil {
				o.fail(k, "world %d: %v", k+1, err)
				continue
			}
			builds += build
			t.worlds[k] = append(t.worlds[k], total.Seconds())
			heap = max(heap, h)
			fps[k] = fingerprint(res)
		}
		t.builds = append(t.builds, builds.Seconds())
		if it == 0 {
			first = fps
			o.checkPins(wl, fps, seed, scale)
		} else {
			o.checkRepeat(first, fps)
		}
		last = time.Since(itStart)
	}
	return t.metrics(heap, o), o
}

// sweepEndToEnd is endToEnd for the sweep workload. Each timed iteration is
// one experiment.Spec.Run; a world's time is the runner's LastRunWall for
// it, and the sweep's own time is what remains of the Spec.Run wall. The
// runner builds worlds internally, so after the first iteration every
// Result.Scenario is rebuilt and run untimed, giving the heap and a check
// that the rebuild reproduces the sweep's fingerprint, and after each later
// one every scenario is built again untimed, giving set-up time.
func sweepEndToEnd(wl workload, seed uint64, seconds, scale float64) ([]metric, *outcome) {
	var t timings
	var first []string
	var scs []config.Scenario
	var heap uint64
	o := newOutcome(1)
	var last time.Duration
	start := time.Now()
	for it := 0; another(it, start, last, seconds); it++ {
		itStart := time.Now()
		var walls []float64
		var calibrating time.Duration
		t0 := time.Now()
		results, err := wl.runSweep(seed, scale, func(p experiment.ProgressInfo) {
			walls = append(walls, p.LastRunWall.Seconds())
			calibrating += t.cal.between()
		})
		sweep := (time.Since(t0) - calibrating).Seconds()
		switch {
		case err != nil:
		case len(walls) != len(results):
			err = fmt.Errorf("%d progress reports for %d worlds", len(walls), len(results))
		case it > 0 && len(results) != len(first):
			err = fmt.Errorf("ran %d worlds, the first iteration %d", len(results), len(first))
		}
		if err != nil {
			o.fail(-1, "sweep: %v", err)
			return nil, o
		}
		if it == 0 {
			o = newOutcome(len(results))
			t.worlds = make([][]float64, len(results))
			for _, r := range results {
				scs = append(scs, r.Scenario)
			}
		}
		fps := make([]string, len(results))
		for k, r := range results {
			fps[k] = fingerprint(r)
			t.worlds[k] = append(t.worlds[k], walls[k])
			sweep -= walls[k]
		}
		t.extra = append(t.extra, sweep)
		if it == 0 {
			first = fps
			o.checkPins(wl, fps, seed, scale)
		} else {
			o.checkRepeat(first, fps)
		}

		var builds time.Duration
		for k, sc := range scs {
			if it == 0 {
				res, build, _, h, err := runWorld(sc)
				builds += build
				if err != nil {
					o.fail(k, "world %d rebuild: %v", k+1, err)
					continue
				}
				heap = max(heap, h)
				if fp := fingerprint(res); fp != first[k] {
					o.fail(k, "world %d: rebuilt fingerprint %s differs from the sweep's %s", k+1, fp, first[k])
				}
				continue
			}
			b0 := time.Now()
			w, err := world.Build(sc)
			builds += time.Since(b0)
			if err != nil {
				o.fail(k, "world %d: build: %v", k+1, err)
			}
			runtime.KeepAlive(w)
		}
		t.builds = append(t.builds, builds.Seconds())
		last = time.Since(itStart)
	}
	return t.metrics(heap, o), o
}

// median returns the middle value of xs (the mean of the middle two for an
// even count); xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
