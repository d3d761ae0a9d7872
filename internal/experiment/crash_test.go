package experiment

import (
	"errors"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sdsrp/internal/config"
	"sdsrp/internal/geo"
	"sdsrp/internal/mobility"
	"sdsrp/internal/msg"
	"sdsrp/internal/network"
	"sdsrp/internal/policy"
	"sdsrp/internal/rng"
	"sdsrp/internal/world"
)

// panicFactoryPolicy is registered with a factory that panics, so any run
// naming it blows up inside world.Build — deterministically, on every host
// construction, exercising the worker recovery path with a real build.
const panicFactoryPolicy = "test-panic-factory"

// panicSendPolicy panics on the first SendScore call, exercising recovery
// from deep inside the event loop.
const panicSendPolicy = "test-panic-send"

type sendPanicPolicy struct{}

func (sendPanicPolicy) Name() string                               { return panicSendPolicy }
func (sendPanicPolicy) SendScore(policy.View, *msg.Stored) float64 { panic("injected SendScore panic") }
func (sendPanicPolicy) DropScore(policy.View, *msg.Stored) float64 { return 0 }

func init() {
	if err := policy.Register(panicFactoryPolicy, func(*rng.Stream) policy.Policy {
		panic("injected factory panic")
	}); err != nil {
		panic(err)
	}
	if err := policy.Register(panicSendPolicy, func(*rng.Stream) policy.Policy {
		return sendPanicPolicy{}
	}); err != nil {
		panic(err)
	}
}

// TestPartialResultsOnFailure checks the satellite fix for the old
// all-or-nothing batch: one failed run must not discard its siblings'
// results, and the joined error must attribute the failure by index and
// name.
func TestPartialResultsOnFailure(t *testing.T) {
	scs := []config.Scenario{tinyScenario(1), tinyScenario(2), tinyScenario(3)}
	boom := errors.New("boom")
	o := Options{Workers: 2, runOne: func(sc config.Scenario, _ ...world.BuildOption) (world.Result, error) {
		if sc.Seed == 2 {
			return world.Result{}, boom
		}
		return world.Result{Contacts: int(sc.Seed)}, nil
	}}
	res, err := o.RunScenarios(scs)
	if err == nil {
		t.Fatal("want a batch error")
	}
	if !errors.Is(err, boom) {
		t.Errorf("joined error does not unwrap to the cause: %v", err)
	}
	var re *RunError
	if !errors.As(err, &re) || re.Index != 1 {
		t.Errorf("want *RunError with Index 1, got %v", err)
	}
	if len(res) != 3 || res[0].Contacts != 1 || res[2].Contacts != 3 {
		t.Errorf("sibling results lost: %+v", res)
	}
}

// TestPanicIsolation checks a worker panic in one run — both at build time
// and deep inside the simulation loop — becomes that run's error while
// every other run still returns its result and is journaled.
func TestPanicIsolation(t *testing.T) {
	for _, bad := range []string{panicFactoryPolicy, panicSendPolicy} {
		t.Run(bad, func(t *testing.T) {
			scs := []config.Scenario{tinyScenario(1), tinyScenario(2), tinyScenario(3)}
			scs[1].PolicyName = bad
			j, err := OpenJournal(filepath.Join(t.TempDir(), "runs.jsonl"))
			if err != nil {
				t.Fatal(err)
			}
			defer j.Close()
			res, err := Options{Workers: 2, Journal: j}.RunScenarios(scs)
			if err == nil {
				t.Fatal("want a batch error from the panicking run")
			}
			var pe *PanicError
			if !errors.As(err, &pe) {
				t.Fatalf("want *PanicError in the chain, got %v", err)
			}
			if len(pe.Stack) == 0 {
				t.Error("panic error carries no stack")
			}
			for _, i := range []int{0, 2} {
				if res[i].Perf.Events == 0 {
					t.Errorf("sibling run %d has no result", i)
				}
			}
			if j.Len() != 3 {
				t.Fatalf("journal has %d entries, want 3 (2 done + 1 failed)", j.Len())
			}
			var done, failed int
			for _, e := range j.Entries() {
				switch e.Status {
				case StatusDone:
					done++
				case StatusFailed:
					failed++
				}
			}
			if done != 2 || failed != 1 {
				t.Errorf("journal has %d done / %d failed, want 2/1", done, failed)
			}
		})
	}
}

// TestRetryTransient checks a transiently failing run is re-attempted up to
// Retries times and the retry count reaches the progress payload.
func TestRetryTransient(t *testing.T) {
	var calls atomic.Int64
	var last ProgressInfo
	o := Options{
		Workers:       1,
		Retries:       2,
		ProgressStats: func(p ProgressInfo) { last = p },
		runOne: func(config.Scenario, ...world.BuildOption) (world.Result, error) {
			if calls.Add(1) < 3 {
				return world.Result{}, errors.New("transient")
			}
			return world.Result{Contacts: 7}, nil
		},
	}
	res, err := o.RunScenarios([]config.Scenario{tinyScenario(1)})
	if err != nil {
		t.Fatalf("run failed despite retries: %v", err)
	}
	if calls.Load() != 3 {
		t.Errorf("runOne called %d times, want 3", calls.Load())
	}
	if res[0].Contacts != 7 {
		t.Errorf("result lost across retries: %+v", res[0])
	}
	if last.Retried != 2 {
		t.Errorf("ProgressInfo.Retried = %d, want 2", last.Retried)
	}
}

// TestNoRetryOnPermanent checks deterministic failures (event-budget stops,
// panics) are never re-attempted: retrying can only reproduce them.
func TestNoRetryOnPermanent(t *testing.T) {
	var calls atomic.Int64
	o := Options{Workers: 1, Retries: 5, runOne: func(config.Scenario, ...world.BuildOption) (world.Result, error) {
		calls.Add(1)
		return world.Result{}, &world.BudgetError{Events: 10, MaxEvents: 10}
	}}
	_, err := o.RunScenarios([]config.Scenario{tinyScenario(1)})
	if !errors.Is(err, world.ErrBudgetExceeded) {
		t.Fatalf("want ErrBudgetExceeded, got %v", err)
	}
	if calls.Load() != 1 {
		t.Errorf("permanent failure attempted %d times, want 1", calls.Load())
	}
}

// TestInterruptBeforeStart checks a pre-fired interrupt claims no runs and
// marks everything with the sentinel the CLI uses to print the resume hint.
func TestInterruptBeforeStart(t *testing.T) {
	interrupt := make(chan struct{})
	close(interrupt)
	var calls atomic.Int64
	o := Options{Workers: 2, Interrupt: interrupt, runOne: func(config.Scenario, ...world.BuildOption) (world.Result, error) {
		calls.Add(1)
		return world.Result{}, nil
	}}
	_, err := o.RunScenarios([]config.Scenario{tinyScenario(1), tinyScenario(2)})
	if !errors.Is(err, ErrInterrupted) {
		t.Fatalf("want ErrInterrupted, got %v", err)
	}
	if calls.Load() != 0 {
		t.Errorf("interrupted batch still executed %d runs", calls.Load())
	}
}

// TestResumeSkipsJournaledRuns checks resume replays journaled results
// without re-executing them, fires OnResult for the replays, and accounts
// them in ProgressInfo.Skipped.
func TestResumeSkipsJournaledRuns(t *testing.T) {
	scs := []config.Scenario{tinyScenario(1), tinyScenario(2), tinyScenario(3)}
	path := filepath.Join(t.TempDir(), "runs.jsonl")

	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	first, err := Options{Workers: 1, Journal: j}.RunScenarios(scs[:2])
	if err != nil {
		t.Fatal(err)
	}
	j.Close()

	j2, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	var executed atomic.Int64
	var onResult atomic.Int64
	var last ProgressInfo
	var mu sync.Mutex
	o := Options{
		Workers:  1,
		Journal:  j2,
		Resume:   true,
		OnResult: func(world.Result) { onResult.Add(1) },
		ProgressStats: func(p ProgressInfo) {
			mu.Lock()
			last = p
			mu.Unlock()
		},
	}
	// Instrument execution without changing behavior.
	o.runOne = func(sc config.Scenario, _ ...world.BuildOption) (world.Result, error) {
		executed.Add(1)
		w, err := world.Build(sc)
		if err != nil {
			return world.Result{}, err
		}
		return w.Run()
	}
	res, err := o.RunScenarios(scs)
	if err != nil {
		t.Fatal(err)
	}
	if executed.Load() != 1 {
		t.Errorf("resume executed %d runs, want 1 (two journaled)", executed.Load())
	}
	if onResult.Load() != 3 {
		t.Errorf("OnResult fired %d times, want 3 (replays included)", onResult.Load())
	}
	if last.Skipped != 2 || last.Done != 3 {
		t.Errorf("final progress %+v, want Done 3 / Skipped 2", last)
	}
	for i := range first {
		if !resultsEqual(res[i], first[i]) {
			t.Errorf("replayed result %d differs from original", i)
		}
	}
}

// TestResumeRerunsOnDigestMismatch checks a journal recorded for different
// scenarios never satisfies a changed sweep: any scenario mutation moves
// the digest, forcing a re-run instead of serving a stale result.
func TestResumeRerunsOnDigestMismatch(t *testing.T) {
	path := filepath.Join(t.TempDir(), "runs.jsonl")
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := (Options{Workers: 1, Journal: j}).RunScenarios([]config.Scenario{tinyScenario(1)}); err != nil {
		t.Fatal(err)
	}
	j.Close()

	j2, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	changed := tinyScenario(1)
	changed.TTL *= 2 // any knob: the digest covers every field
	var executed atomic.Int64
	o := Options{Workers: 1, Journal: j2, Resume: true, runOne: func(sc config.Scenario, _ ...world.BuildOption) (world.Result, error) {
		executed.Add(1)
		w, err := world.Build(sc)
		if err != nil {
			return world.Result{}, err
		}
		return w.Run()
	}}
	if _, err := o.RunScenarios([]config.Scenario{changed}); err != nil {
		t.Fatal(err)
	}
	if executed.Load() != 1 {
		t.Errorf("mutated scenario was served from the journal (executed %d times, want 1)", executed.Load())
	}
}

// TestKillAndResumeByteIdentity is the acceptance gate: a sweep interrupted
// mid-batch and resumed from its journal must produce results identical to
// an uninterrupted sweep in every deterministic field.
func TestKillAndResumeByteIdentity(t *testing.T) {
	scs := []config.Scenario{tinyScenario(11), tinyScenario(12), tinyScenario(13), tinyScenario(14)}

	ref, err := Options{Workers: 1}.RunScenarios(scs)
	if err != nil {
		t.Fatal(err)
	}

	// First pass: interrupt after the second result, like SIGINT mid-sweep.
	path := filepath.Join(t.TempDir(), "runs.jsonl")
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	interrupt := make(chan struct{})
	var once sync.Once
	var finished atomic.Int64
	o := Options{Workers: 1, Journal: j, Interrupt: interrupt, OnResult: func(world.Result) {
		if finished.Add(1) == 2 {
			once.Do(func() { close(interrupt) })
		}
	}}
	if _, err := o.RunScenarios(scs); !errors.Is(err, ErrInterrupted) {
		t.Fatalf("interrupted sweep error = %v, want ErrInterrupted", err)
	}
	j.Close()
	if got := finished.Load(); got != 2 {
		t.Fatalf("interrupted sweep finished %d runs, want 2", got)
	}

	// Second pass: resume. The journaled half replays, the rest executes.
	j2, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	res, err := Options{Workers: 1, Journal: j2, Resume: true}.RunScenarios(scs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ref {
		if !resultsEqual(res[i], ref[i]) {
			t.Errorf("resumed result %d differs from uninterrupted run", i)
		}
	}
	// Digest identity: the journal now addresses exactly the sweep's runs.
	for i, sc := range scs {
		d, err := Digest(sc)
		if err != nil {
			t.Fatal(err)
		}
		e, ok := j2.Lookup(d)
		if !ok || e.Status != StatusDone {
			t.Errorf("run %d (digest %s) missing from resumed journal", i, d[:12])
		}
	}
}

// faultyModel is a mobility model whose position samples panic from 120 s
// of simulated time on.
type faultyModel struct{ mobility.Static }

func (faultyModel) Pos(t float64) geo.Point {
	if t >= 120 {
		panic("injected mobility panic")
	}
	return geo.Point{}
}

// TestScanPanicIsolation: a mobility model that panics on the run-ahead
// scanner's goroutine must fail its run with a *PanicError, like a panic on
// the engine's goroutine, not crash the process; the other runs still
// return their results, and no scanner goroutine outlives the sweep.
func TestScanPanicIsolation(t *testing.T) {
	before := runtime.NumGoroutine()
	scs := []config.Scenario{tinyScenario(1), tinyScenario(2), tinyScenario(3)}
	o := Options{Workers: 2, runOne: func(sc config.Scenario, opts ...world.BuildOption) (world.Result, error) {
		w, err := world.Build(sc, opts...)
		if err != nil {
			return world.Result{}, err
		}
		if sc.Seed == 2 {
			// Rewire the radio over models that fail mid-run.
			models := make([]mobility.Model, len(w.Hosts))
			for i := range models {
				models[i] = faultyModel{}
			}
			w.Manager, err = network.NewManager(w.Engine, network.Config{
				Area: sc.Area, Range: sc.Range, Bandwidth: sc.Bandwidth,
				ScanInterval: sc.ScanInterval, Tracer: w.Collector,
			}, w.Hosts, models)
			if err != nil {
				return world.Result{}, err
			}
		}
		return w.Run()
	}}
	res, err := o.RunScenarios(scs)
	var pe *PanicError
	if !errors.As(err, &pe) || !strings.Contains(pe.Error(), "injected mobility panic") {
		t.Fatalf("want the scanner's panic as a *PanicError, got %v", err)
	}
	var re *RunError
	if !errors.As(err, &re) || re.Index != 1 {
		t.Fatalf("want the failure attributed to run 1, got %v", err)
	}
	if res[0].Created == 0 || res[2].Created == 0 {
		t.Fatalf("sibling results lost: %+v / %+v", res[0].Summary, res[2].Summary)
	}
	n := runtime.NumGoroutine()
	for deadline := time.Now().Add(time.Second); n > before && time.Now().Before(deadline); n = runtime.NumGoroutine() {
		time.Sleep(time.Millisecond)
	}
	if n > before {
		t.Fatalf("%d goroutines after the sweep, %d before", n, before)
	}
}
