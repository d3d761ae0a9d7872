package world

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"time"

	"sdsrp/internal/config"
	"sdsrp/internal/network"
)

// TestRunAheadMatchesLockstep is the run-ahead differential: across every
// scanner-differential family, each run with the scanner on its own
// goroutine ahead of the engine must emit the lockstep run's JSONL trace
// byte for byte and return the same Result, Perf included (scan counters,
// events, peak queue; only the wall time differs). Coupled
// families (battery, churn) scan in lockstep either way. Seeds 1–3 run
// the production scan, the neighbour list.
func TestRunAheadMatchesLockstep(t *testing.T) {
	for name, mk := range diffFamilies() {
		for _, seed := range []uint64{1, 2, 3} {
			sc := mk()
			sc.Seed = seed
			sc.Name = fmt.Sprintf("ahead-%s-auto-%d", name, seed)
			t.Run(sc.Name, func(t *testing.T) {
				t.Parallel()
				stepped, resS, logS, err := runScenarioMode(sc, false)
				if err != nil {
					t.Fatalf("lockstep: %v", err)
				}
				ahead, resA, logA, err := runScenarioMode(sc, true)
				if err != nil {
					t.Fatalf("run-ahead: %v", err)
				}
				if line, s, a, same := firstDiff(stepped, ahead); !same {
					t.Fatalf("traces diverge at line %d:\n  lockstep:  %s\n  run-ahead: %s", line, s, a)
				}
				resS.Perf.WallSeconds, resA.Perf.WallSeconds = 0, 0
				if !reflect.DeepEqual(resS, resA) {
					t.Fatalf("results diverge:\n  lockstep:  %+v\n  run-ahead: %+v", resS, resA)
				}
				if !reflect.DeepEqual(logS, logA) {
					t.Fatalf("contact logs diverge: %d vs %d entries", len(logS), len(logA))
				}
			})
		}
	}
}

// settledGoroutines waits up to a second for the process to be back to at
// most want goroutines and returns the count it saw last: an ended
// goroutine leaves the scheduler's count a moment after its last statement.
func settledGoroutines(want int) int {
	n := runtime.NumGoroutine()
	for deadline := time.Now().Add(time.Second); n > want && time.Now().Before(deadline); n = runtime.NumGoroutine() {
		time.Sleep(time.Millisecond)
	}
	return n
}

// TestRunAheadStopsWithRun cuts run-ahead worlds short with the event
// budget and with the wall-clock watchdog (a deadline already past stops
// the engine at its first check, 8192 events in). Either way the scanner
// goroutine must be gone once Run returns, and Perf, scan counters
// included, must count only the ticks the engine applied, however far the
// scanner had run ahead: it equals a lockstep run cut at the same event.
func TestRunAheadStopsWithRun(t *testing.T) {
	sc := diffBase()
	sc.Seed = 1
	sc.Duration = 8000
	for _, cut := range []string{"budget", "timeout"} {
		t.Run(cut, func(t *testing.T) {
			before := runtime.NumGoroutine()
			run := sc
			if cut == "budget" {
				run.MaxEvents = 5000
			}
			w, err := Build(run)
			if err != nil {
				t.Fatal(err)
			}
			if cut == "timeout" {
				w.Engine.SetWallDeadline(time.Now())
			}
			res, err := w.Run()
			switch {
			case cut == "budget" && !errors.Is(err, ErrBudgetExceeded),
				cut == "timeout" && !errors.Is(err, ErrRunTimeout):
				t.Fatalf("run ended with %v", err)
			}
			if n := settledGoroutines(before); n > before {
				t.Fatalf("%d goroutines after Run, %d before: the scanner outlived it", n, before)
			}
			if res.Perf.SimSeconds >= sc.Duration-sc.ScanInterval*600 {
				t.Fatalf("the run was cut at %v s, too near the %v s horizon to test the lookahead", res.Perf.SimSeconds, sc.Duration)
			}

			ref := sc
			ref.MaxEvents = res.Perf.Events
			wl, err := Build(ref)
			if err != nil {
				t.Fatal(err)
			}
			resL, err := wl.run(false)
			if !errors.Is(err, ErrBudgetExceeded) {
				t.Fatalf("lockstep reference ended with %v", err)
			}
			res.Perf.WallSeconds, resL.Perf.WallSeconds = 0, 0
			res.Scenario, resL.Scenario = config.Scenario{}, config.Scenario{}
			if !reflect.DeepEqual(res, resL) {
				t.Fatalf("results diverge:\n  run-ahead: %+v\n  lockstep:  %+v", res, resL)
			}
		})
	}
}

// TestRunAheadRecordsLockstepPlan: a recording world runs ahead, its
// scanner streaming the ticks from its own goroutine, and must publish the
// very plan a lockstep recording of the same world writes.
func TestRunAheadRecordsLockstepPlan(t *testing.T) {
	for name, mk := range diffFamilies() {
		if !mk().MotionOnlyContacts() {
			continue
		}
		sc := mk()
		sc.Seed = 2
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			ahead, stepped := &network.ContactPlan{}, &network.ContactPlan{}
			if _, _, _, err := runScenarioMode(sc, true, RecordContactPlan(ahead)); err != nil {
				t.Fatal(err)
			}
			if _, _, _, err := runScenarioMode(sc, false, RecordContactPlan(stepped)); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(ahead, stepped) {
				t.Fatal("the run-ahead recording differs from the lockstep one")
			}
			if reflect.DeepEqual(ahead, &network.ContactPlan{}) {
				t.Fatal("nothing was recorded")
			}
		})
	}
}

// BenchmarkRunAheadSplit splits two worlds into the parts the run-ahead
// scan overlaps, timing Run alone: the whole run in lockstep and run
// ahead, its scan alone (a traffic-free twin, in lockstep) and everything
// else alone (the world replaying its own recorded contact plan). The
// worlds are rwp-long's first (Table II at a 90 000 s horizon) and taxi's
// first (Table III). PERFORMANCE.md §17 reads them:
//
//	go test -run '^$' -bench RunAheadSplit -benchtime 5x ./internal/world
func BenchmarkRunAheadSplit(b *testing.B) {
	rwpLong := func() config.Scenario {
		sc := config.RandomWaypoint()
		sc.Duration = 90000
		return sc
	}
	for _, w := range []struct {
		name string
		sc   config.Scenario
	}{{"rwp-long", rwpLong()}, {"taxi", config.EPFL()}} {
		plan := &network.ContactPlan{}
		if _, _, _, err := runScenario(w.sc, RecordContactPlan(plan)); err != nil {
			b.Fatal(err)
		}
		twin := w.sc
		twin.GenIntervalLo = 0
		for _, part := range []struct {
			name  string
			sc    config.Scenario
			ahead bool
			opts  []BuildOption
		}{
			{"lockstep", w.sc, false, nil},
			{"ahead", w.sc, true, nil},
			{"scan-only", twin, false, nil},
			{"replay", w.sc, false, []BuildOption{ReplayContactPlan(plan)}},
		} {
			b.Run(w.name+"/"+part.name, func(b *testing.B) {
				for range b.N {
					b.StopTimer()
					wld, err := Build(part.sc, part.opts...)
					if err != nil {
						b.Fatal(err)
					}
					b.StartTimer()
					if _, err := wld.run(part.ahead); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
