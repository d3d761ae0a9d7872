// Package experiment regenerates every table and figure of the paper's
// evaluation: the Fig. 3 intermeeting distributions, the Fig. 4 priority
// curve, and the Fig. 8 / Fig. 9 nine-panel sweeps, plus the ablations
// listed in DESIGN.md §8.
//
// Simulation runs are deterministic and independent, so the runner fans
// them out over a worker pool and reduces results in input order. The
// runner is crash-safe: with a Journal attached, every finished run is
// durably recorded under its scenario digest, and a resumed sweep skips
// the journaled runs and produces byte-identical results to an
// uninterrupted one.
package experiment

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"sdsrp/internal/config"
	"sdsrp/internal/world"
)

// ErrInterrupted is the sentinel carried (via errors.Is) by the RunError of
// every run a sweep never started because Options.Interrupt fired. In-flight
// runs drain to completion; only unclaimed runs report it.
var ErrInterrupted = errors.New("experiment: sweep interrupted")

// RunError attributes one failed run inside a batch: which scenario (by
// input index and name) and why. Batch errors are an errors.Join of these,
// so errors.Is/As reach both the RunError and its cause.
type RunError struct {
	// Index is the run's position in the input scenario slice.
	Index int
	// Name is the scenario name.
	Name string
	// Err is the final attempt's error.
	Err error
}

func (e *RunError) Error() string {
	return fmt.Sprintf("run %d (%s): %v", e.Index, e.Name, e.Err)
}

func (e *RunError) Unwrap() error { return e.Err }

// PanicError is a worker panic converted into a per-run error, carrying the
// recovered value and the goroutine stack at recovery. Panics are permanent
// failures: they are never retried, and one panicking run cannot take down
// the rest of the batch.
type PanicError struct {
	Value any
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("run panicked: %v\n%s", e.Value, e.Stack)
}

// Options tunes an experiment's cost without changing its structure.
type Options struct {
	// Workers bounds run parallelism; 0 means GOMAXPROCS.
	Workers int
	// Seeds replicates every configuration and averages the metrics;
	// empty means {1}.
	Seeds []uint64
	// Scale multiplies scenario duration and TTL (0 means 1). Values < 1
	// give quick smoke runs for tests and benchmarks.
	Scale float64
	// Nodes overrides the preset node count (0 keeps it); synthetic areas
	// shrink with sqrt(Nodes/preset) to preserve node density.
	Nodes int
	// Policies overrides the compared strategies; empty means the paper's
	// four.
	Policies []string
	// ProgressStats, when set, receives a ProgressInfo (done and total,
	// wall-clock elapsed, ETA, per-run timing) after each finished run. It
	// may fire concurrently from worker goroutines.
	ProgressStats func(ProgressInfo)
	// OnResult, when set, receives every finished run's Result (including
	// its Perf engine counters) — journal-skipped runs included, so
	// aggregations over a resumed sweep see the same stream as an
	// uninterrupted one. May fire concurrently from worker goroutines;
	// callbacks must be safe for that (or run with Workers: 1).
	OnResult func(world.Result)
	// Journal, when set, durably records every finished run (and every
	// exhausted failure) keyed by scenario digest.
	Journal *Journal
	// Resume, with a Journal attached, skips runs whose digest the journal
	// already records as done, replaying the stored Result instead.
	Resume bool
	// Retries is how many times a transiently failed run is re-attempted,
	// immediately (0 means failures are final on the first attempt).
	// Panics and deterministic budget stops are never retried.
	Retries int
	// RunTimeout bounds each run's wall-clock time (0 means unbounded).
	// A timed-out run fails with world.ErrRunTimeout.
	RunTimeout time.Duration
	// Interrupt, when closed, stops the batch claiming new runs: in-flight
	// runs drain and are journaled, unstarted runs fail with
	// ErrInterrupted. Wire it to a signal handler for graceful shutdown.
	Interrupt <-chan struct{}

	// runOne replaces the build-and-simulate step in tests. opts carry the
	// attempt's contact-plan option, if any.
	runOne func(sc config.Scenario, opts ...world.BuildOption) (world.Result, error)
}

// ProgressInfo describes batch progress after one run finished.
type ProgressInfo struct {
	Done, Total int
	// Skipped is how many of Done were replayed from the journal instead
	// of executed (resume hits).
	Skipped int
	// Retried is the total number of re-attempts so far across the batch.
	Retried int
	// Elapsed is the wall-clock time since the batch started.
	Elapsed time.Duration
	// ETA estimates the remaining wall-clock time from the mean pace of
	// the *executed* runs so far (0 when done or nothing executed yet);
	// journal skips are free and must not skew it.
	ETA time.Duration
	// LastRunWall is the wall-clock duration of the run that just
	// finished (build + simulate); 0 for a journal skip.
	LastRunWall time.Duration
}

// PaperPolicies are the four buffer-management strategies of Section IV-A,
// in the paper's order.
var PaperPolicies = []string{"SprayAndWait", "SprayAndWait-O", "SprayAndWait-C", "SDSRP"}

func (o Options) withDefaults() Options {
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if len(o.Seeds) == 0 {
		o.Seeds = []uint64{1}
	}
	if o.Scale <= 0 {
		o.Scale = 1
	}
	if len(o.Policies) == 0 {
		o.Policies = PaperPolicies
	}
	return o
}

// apply rescales a preset scenario per the options: duration and TTL scale
// together, and synthetic areas shrink to preserve node density.
func (o Options) apply(sc config.Scenario) config.Scenario {
	if o.Scale != 1 {
		sc.Duration *= o.Scale
		sc.TTL *= o.Scale
	}
	if o.Nodes > 0 && o.Nodes != sc.Nodes {
		ratio := float64(o.Nodes) / float64(sc.Nodes)
		sc.Nodes = o.Nodes
		shrinkArea(&sc, ratio)
	}
	return sc
}

// shrinkArea preserves spatial node density when the node count changes.
func shrinkArea(sc *config.Scenario, ratio float64) {
	f := math.Sqrt(ratio)
	switch sc.Mobility.Kind {
	case config.MobilityTaxi:
		t := &sc.Mobility.Taxi
		t.Area.Max.X *= f
		t.Area.Max.Y *= f
		for i := range t.Hotspots {
			t.Hotspots[i].Center.X *= f
			t.Hotspots[i].Center.Y *= f
			t.Hotspots[i].Sigma *= f
		}
		sc.Area = t.Area
	case config.MobilityTraceDir:
		// Real traces keep their geometry.
	default:
		sc.Area.Max.X *= f
		sc.Area.Max.Y *= f
	}
}

// RunScenarios executes every scenario on a worker pool and returns results
// in input order, honoring the options' progress and per-result callbacks
// and their crash-safety machinery: journal recording, resume skips, panic
// isolation, bounded retries, per-run wall-clock timeouts, and graceful
// interruption. It is the entry point every sweep uses.
//
// Runs whose contacts provably match (same motion, differing only in
// traffic-only fields; see contactKey) scan once: the first records the
// contact schedule and the rest replay it, with identical results. A
// replayed run's Result.Perf.Replayed is set and its scan counters are
// zero; which runs replay can vary with Workers, nothing else does.
//
// Failure handling is per run, not per batch: a failed (or panicked, or
// interrupted) run leaves a zero Result in its slot and contributes a
// *RunError to the joined error; every other run still executes and
// returns its result. Callers that can tolerate holes may use the partial
// results; errors.Is(err, ErrInterrupted) distinguishes an interrupt from
// real failures.
func (o Options) RunScenarios(scs []config.Scenario) ([]world.Result, error) {
	o = o.withDefaults()
	progress := o.ProgressStats
	results := make([]world.Result, len(scs))
	errs := make([]error, len(scs))

	// Content-address every run up front when a journal is attached; a
	// digest failure is a programming error (scenario not serializable)
	// and aborts before any work starts.
	digests := make([]string, len(scs))
	if o.Journal != nil {
		for i, sc := range scs {
			d, err := Digest(sc)
			if err != nil {
				return nil, err
			}
			digests[i] = d
		}
	}

	// Resolve resume hits before the workers start: the skip set is then
	// fixed, so the ETA can cleanly separate free replays from executed
	// runs, and progress for skips fires in deterministic input order.
	skipped := make([]bool, len(scs))
	totalSkipped := 0
	if o.Resume && o.Journal != nil {
		for i := range scs {
			if e, ok := o.Journal.Lookup(digests[i]); ok && e.Status == StatusDone && e.Result != nil {
				results[i] = e.Result.Restore()
				skipped[i] = true
				totalSkipped++
			}
		}
	}

	groups := shareGroups(scs, skipped)

	batchStart := time.Now()
	var done, retried atomic.Int64
	report := func(executedWall time.Duration, isSkip bool) {
		if progress == nil {
			return
		}
		d := int(done.Add(1))
		elapsed := time.Since(batchStart)
		var eta time.Duration
		executed := d - totalSkipped
		if left := len(scs) - d; left > 0 && executed > 0 {
			eta = elapsed / time.Duration(executed) * time.Duration(left)
		}
		wall := executedWall
		if isSkip {
			wall = 0
		}
		progress(ProgressInfo{
			Done:        d,
			Total:       len(scs),
			Skipped:     totalSkipped,
			Retried:     int(retried.Load()),
			Elapsed:     elapsed,
			ETA:         eta,
			LastRunWall: wall,
		})
	}

	// Replay skips first, in input order, so downstream aggregation
	// (OnResult consumers) sees the same result stream as an
	// uninterrupted sweep.
	for i := range scs {
		if !skipped[i] {
			continue
		}
		if o.OnResult != nil {
			o.OnResult(results[i])
		}
		report(0, true)
	}

	interrupted := func() bool {
		if o.Interrupt == nil {
			return false
		}
		select {
		case <-o.Interrupt:
			return true
		default:
			return false
		}
	}

	claimed := make([]bool, len(scs))
	var next atomic.Int64
	//lint:invariant worker goroutines parallelize across WHOLE runs, never inside one: each scenario's engine, world, and RNG streams are constructed and driven entirely by the one worker that claimed it, so sweep-level concurrency cannot reorder any run's event stream
	var wg sync.WaitGroup
	for w := 0; w < o.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if interrupted() {
					return
				}
				i := int(next.Add(1)) - 1
				if i >= len(scs) {
					return
				}
				if skipped[i] {
					continue
				}
				claimed[i] = true
				runStart := time.Now()
				res, err, attempts := o.execute(scs[i], groups[i], &retried)
				if err != nil {
					errs[i] = err
					if o.Journal != nil {
						if jerr := o.Journal.RecordFailure(digests[i], scs[i], err, attempts); jerr != nil {
							errs[i] = errors.Join(err, jerr)
						}
					}
				} else {
					results[i] = res
					if o.Journal != nil {
						// Journal the resolved scenario carried by the
						// Result, so a resume replays exactly what ran.
						if jerr := o.Journal.RecordResult(digests[i], res.Scenario, res, attempts); jerr != nil {
							errs[i] = jerr
						}
					}
					if o.OnResult != nil {
						o.OnResult(res)
					}
				}
				report(time.Since(runStart), false)
			}
		}()
	}
	wg.Wait()

	// Runs never claimed because of an interrupt fail with the sentinel:
	// the caller can resume them, and they must not be mistaken for
	// simulation failures.
	if interrupted() {
		for i := range scs {
			if !skipped[i] && !claimed[i] && errs[i] == nil {
				errs[i] = ErrInterrupted
			}
		}
	}

	var failed []error
	for i, err := range errs {
		if err != nil {
			failed = append(failed, &RunError{Index: i, Name: scs[i].Name, Err: err})
		}
	}
	if len(failed) > 0 {
		return results, fmt.Errorf("experiment: %d of %d runs failed: %w",
			len(failed), len(scs), errors.Join(failed...))
	}
	return results, nil
}

// execute runs one scenario with panic isolation and bounded retries,
// returning the result, the final error, and how many attempts were made.
// g is the run's contact-sharing group (nil when it shares nothing); each
// attempt claims its own plan role, so a retry records afresh.
func (o Options) execute(sc config.Scenario, g *shareGroup, retried *atomic.Int64) (world.Result, error, int) {
	defer g.finish()
	attempts := 0
	for {
		attempts++
		opts, rec := g.claim()
		res, err := o.attempt(sc, opts)
		g.release(rec, err == nil)
		if err == nil {
			return res, nil, attempts
		}
		if attempts > o.Retries || permanentFailure(err) {
			return res, err, attempts
		}
		retried.Add(1)
	}
}

// attempt builds and runs one scenario, converting a panic anywhere in the
// build/simulate path into a *PanicError so one poisoned run cannot take
// down the worker pool.
func (o Options) attempt(sc config.Scenario, opts []world.BuildOption) (res world.Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &PanicError{Value: r, Stack: debug.Stack()}
		}
	}()
	if o.runOne != nil {
		return o.runOne(sc, opts...)
	}
	w, err := world.Build(sc, opts...)
	if err != nil {
		return world.Result{}, err
	}
	if o.RunTimeout > 0 {
		w.Engine.SetWallDeadline(time.Now().Add(o.RunTimeout))
	}
	return w.Run()
}

// permanentFailure reports whether a run error is deterministic — retrying
// could only reproduce it. Panics and event-budget stops are permanent;
// wall-clock timeouts and I/O-flavored build failures are treated as
// transient and eligible for retry.
func permanentFailure(err error) bool {
	var pe *PanicError
	return errors.As(err, &pe) || errors.Is(err, world.ErrBudgetExceeded)
}
