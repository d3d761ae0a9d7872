package world

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"sdsrp/internal/config"
	"sdsrp/internal/fault"
	"sdsrp/internal/geo"
	"sdsrp/internal/mobility"
	"sdsrp/internal/network"
	"sdsrp/internal/obs"
	"sdsrp/internal/trace"
)

// diffBase is a small, fast scenario the differential matrix perturbs.
func diffBase() config.Scenario {
	sc := config.RandomWaypoint()
	sc.Nodes = 24
	sc.Area = geo.NewRect(1500, 1200)
	sc.Duration = 1200
	sc.TTL = 3000
	sc.BufferBytes = 2 * config.MB
	return sc
}

// plannerNames labels the planners in failure messages.
var plannerNames = map[network.Planner]string{
	network.AutoPlanner:      "auto",
	network.NaivePlanner:     "naive",
	network.LazyPlanner:      "lazy",
	network.KineticPlanner:   "kinetic",
	network.ReferencePlanner: "reference",
}

// runScan executes sc under planner p and returns the full JSONL event
// trace plus the result digest. The trace pins every link-up/down,
// transfer, drop, and delivery with its timestamp — byte equality between
// planners is the strongest observable equivalence the simulator offers.
func runScan(t *testing.T, sc config.Scenario, p network.Planner) ([]byte, Result, []trace.Contact) {
	t.Helper()
	trace, res, contacts, err := runScenario(sc, withPlanner(p))
	if err != nil {
		t.Fatalf("%s: %v", plannerNames[p], err)
	}
	return trace, res, contacts
}

// runScenario builds sc with opts and runs it, returning its JSONL event
// trace, result and finished contacts. It reports failure as an error
// rather than through a *testing.T, so it may run on any goroutine.
func runScenario(sc config.Scenario, opts ...BuildOption) ([]byte, Result, []trace.Contact, error) {
	return runScenarioMode(sc, true, opts...)
}

// runScenarioMode is runScenario with the scan run ahead of the engine
// where the world allows it (ahead), or in lockstep.
func runScenarioMode(sc config.Scenario, ahead bool, opts ...BuildOption) ([]byte, Result, []trace.Contact, error) {
	var buf bytes.Buffer
	jsonl := obs.NewJSONL(&buf)
	rec := trace.NewContactRecorder()
	w, err := Build(sc, append([]BuildOption{WithTracer(obs.Multi(jsonl, rec))}, opts...)...)
	if err != nil {
		return nil, Result{}, nil, fmt.Errorf("build: %w", err)
	}
	res, err := w.run(ahead)
	if err != nil {
		return nil, Result{}, nil, fmt.Errorf("run: %w", err)
	}
	if err := jsonl.Flush(); err != nil {
		return nil, Result{}, nil, fmt.Errorf("flush: %w", err)
	}
	return buf.Bytes(), res, rec.Contacts(), nil
}

// assertPlannerMatchesReference runs sc under the reference scan (the naive
// scan's list rebuilt every tick at the largest range, a plain per-tick
// grid pass with no certificate) and under planner p, and fails on the
// first diverging trace line.
func assertPlannerMatchesReference(t *testing.T, sc config.Scenario, p network.Planner) {
	t.Helper()
	mode := plannerNames[p]
	ref, resR, logR := runScan(t, sc, network.ReferencePlanner)
	other, resO, logO := runScan(t, sc, p)
	if line, rl, ol, same := firstDiff(ref, other); !same {
		t.Fatalf("planners diverge at trace line %d:\n  reference: %s\n  %s: %s", line, rl, mode, ol)
	}
	if resR.Summary != resO.Summary {
		t.Fatalf("summaries diverge:\nreference: %+v\n%s: %+v", resR.Summary, mode, resO.Summary)
	}
	if resR.Contacts != resO.Contacts || resR.MeanContactDuration != resO.MeanContactDuration {
		t.Fatalf("contact digests diverge: reference (%d, %v) %s (%d, %v)",
			resR.Contacts, resR.MeanContactDuration, mode, resO.Contacts, resO.MeanContactDuration)
	}
	if !reflect.DeepEqual(logR, logO) {
		t.Fatalf("recorded contact logs diverge: reference %d entries, %s %d", len(logR), mode, len(logO))
	}
	// The planner under test must actually have skipped work on these
	// scenarios (otherwise the test only proves the reference equals
	// itself): pair-ticks parked for lazy, node-ticks parked for kinetic.
	// The naive scan parks nothing; its list's period is pinned by
	// TestListNeverMissesAContact (internal/network), and it must check
	// exactly the pairs the reference checks. The raw checked counters are
	// NOT comparable across planners — the naive count is grid-prefiltered
	// while the planners pay different candidate sets — so the ns/op claim
	// lives in the bench suite, not here.
	switch {
	case p == network.NaivePlanner:
		if resO.Perf.PairsChecked != resR.Perf.PairsChecked {
			t.Errorf("naive scan checked %d pairs, the reference %d", resO.Perf.PairsChecked, resR.Perf.PairsChecked)
		}
	case resO.Perf.PairsSkipped == 0:
		t.Errorf("%s run skipped no pair checks — planner inert?", mode)
	}
}

// diffFamilies is the scenario matrix shared by every scanner-equivalence
// test: all mobility kinds, walkers that pause, per-node ranges, churn/flap
// faults, and energy death. TestNaiveScanMatchesReference,
// TestLazyScanMatchesNaive and TestKineticScanMatchesNaive hold the naive
// scan, the lazy sweep and the kinetic planner to the reference scan, and
// TestWorkerCountsMatchSerial (concurrency_test.go) runs it
// serial-vs-concurrent.
func diffFamilies() map[string]func() config.Scenario {
	return map[string]func() config.Scenario{
		"rwp": diffBase,
		"random-walk": func() config.Scenario {
			sc := diffBase()
			sc.Mobility = config.Mobility{Kind: config.MobilityRandomWalk,
				SpeedLo: 1, SpeedHi: 6, EpochDist: 250}
			return sc
		},
		"random-direction": func() config.Scenario {
			sc := diffBase()
			sc.Mobility = config.Mobility{Kind: config.MobilityRandomDirection,
				SpeedLo: 0.5, SpeedHi: 3, PauseLo: 0, PauseHi: 60}
			return sc
		},
		"taxi-trace-replay": func() config.Scenario {
			// Synthesized fleet → Path playback: covers the parse-time
			// MaxSpeed measurement.
			sc := diffBase()
			sc.Nodes = 16
			sc.Mobility = config.Mobility{Kind: config.MobilityTaxi,
				Taxi: mobility.DefaultTaxiConfig(), SampleInterval: 30}
			sc.Area = sc.Mobility.Taxi.Area
			return sc
		},
		"map-grid": func() config.Scenario {
			sc := diffBase()
			sc.Mobility = config.Mobility{Kind: config.MobilityMapGrid,
				SpeedLo: 1, SpeedHi: 4, MapCols: 5, MapRows: 4, MapSpacing: 300}
			// Non-default cell size, for two reasons: it runs the whole
			// scanner matrix at an overridden CellSize, and it breaks the
			// degenerate alignment where the 300 m road pitch is a multiple
			// of the 100 m default cell — roads sitting exactly on bucket
			// boundaries pin every kinetic cell deadline at zero.
			sc.CellSize = 130
			return sc
		},
		"groups-static-relays-per-node-ranges": func() config.Scenario {
			// Static relays (MaxSpeed 0 → retired pairs) with longer
			// radios among RWP walkers: covers per-node ranges and the
			// zero-closing-speed path.
			sc := diffBase()
			sc.Groups = []config.Group{
				{Name: "walkers", Count: 18, Mobility: config.Mobility{
					Kind: config.MobilityRWP, SpeedLo: 1, SpeedHi: 3}},
				{Name: "relays", Count: 6, Range: 250, Mobility: config.Mobility{
					Kind: config.MobilityStatic}},
			}
			return sc
		},
		"rwp-pauses": func() config.Scenario {
			// Walkers that stop for up to two minutes between legs: v = 0
			// legs and leg ends inside park deadlines, for the segment
			// certificates both planners park on.
			sc := diffBase()
			sc.Mobility = config.Mobility{Kind: config.MobilityRWP,
				SpeedLo: 0.5, SpeedHi: 3, PauseLo: 0, PauseHi: 120}
			return sc
		},
		"churn": func() config.Scenario {
			sc := diffBase()
			sc.Faults = fault.Config{Churn: fault.Churn{MeanUp: 300, MeanDown: 120}}
			return sc
		},
		"static-relays-churn": func() config.Scenario {
			// In-range static-static pairs (closing speed 0) whose endpoints
			// churn-crash and reboot: the lazy planner must keep them near —
			// retiring them would lose every post-reboot re-up the naive
			// scanner emits. Dense relays guarantee in-range static pairs.
			sc := diffBase()
			sc.Groups = []config.Group{
				{Name: "walkers", Count: 12, Mobility: config.Mobility{
					Kind: config.MobilityRWP, SpeedLo: 1, SpeedHi: 3}},
				{Name: "relays", Count: 12, Range: 400, Mobility: config.Mobility{
					Kind: config.MobilityStatic}},
			}
			sc.Faults = fault.Config{Churn: fault.Churn{MeanUp: 200, MeanDown: 100}}
			return sc
		},
		"flap-and-loss": func() config.Scenario {
			sc := diffBase()
			sc.Faults = fault.Config{LinkFlapMeanUp: 40, TransferLossProb: 0.05}
			return sc
		},
		"energy-death": func() config.Scenario {
			sc := diffBase()
			sc.Energy = config.Energy{Capacity: 400, ScanPerSec: 0.5, TxPerSec: 15, RxPerSec: 10}
			return sc
		},
	}
}

// TestNaiveScanMatchesReference is the neighbour list's differential test:
// on every family and seed, the naive scan, which rebuilds its list every K
// ticks, must emit the reference scan's event stream byte for byte and
// check the same pairs.
func TestNaiveScanMatchesReference(t *testing.T) {
	for name, mk := range diffFamilies() {
		for _, seed := range []uint64{1, 2, 3} {
			sc := mk()
			sc.Seed = seed
			sc.Name = fmt.Sprintf("list-%s-%d", name, seed)
			t.Run(sc.Name, func(t *testing.T) {
				t.Parallel()
				assertPlannerMatchesReference(t, sc, network.NaivePlanner)
			})
		}
	}
}

// TestLazyScanMatchesNaive is the differential property test: across seeds,
// every mobility kind, per-node ranges, and churn/flap faults, the lazy
// scanner's event stream must be byte-identical to the naive scan's
// reference (a per-tick grid pass).
func TestLazyScanMatchesNaive(t *testing.T) {
	for name, mk := range diffFamilies() {
		for _, seed := range []uint64{1, 2, 3} {
			sc := mk()
			sc.Seed = seed
			sc.Name = fmt.Sprintf("diff-%s-%d", name, seed)
			t.Run(sc.Name, func(t *testing.T) {
				t.Parallel()
				assertPlannerMatchesReference(t, sc, network.LazyPlanner)
			})
		}
	}
}

// TestKineticScanMatchesNaive runs the same differential matrix against the
// kinetic scanner: the grid-bucketed per-node planner must emit the
// reference scan's event stream byte for byte on every family and seed.
func TestKineticScanMatchesNaive(t *testing.T) {
	for name, mk := range diffFamilies() {
		for _, seed := range []uint64{1, 2, 3} {
			sc := mk()
			sc.Seed = seed
			sc.Name = fmt.Sprintf("kin-%s-%d", name, seed)
			t.Run(sc.Name, func(t *testing.T) {
				t.Parallel()
				assertPlannerMatchesReference(t, sc, network.KineticPlanner)
			})
		}
	}
}

// TestAutoPlannerMatchesForced pins the automatic planner choice to the
// benchmark's workloads: a Table II world runs the lazy sweep, a Table III
// world the lazy sweep until its load monitor retires it to the naive scan,
// and a shortened fleet-10k world the kinetic planner, each with exactly the
// scan work counters of a run forced onto that planner. Those worlds'
// seed-1 counters are pinned too, so a model that stops reporting its legs
// (a wrapper hiding mobility.Legged, say) fails here instead of silently
// parking on the MaxSpeed bound again: without the leg certificates, table2
// reads 731 616 / 88 794 407 / 414 250 and fleet-10k 251 635 / 577 332 /
// 32 105. Table III's counters equal a per-tick grid pass's (the reference
// scan's), so its neighbour list must check exactly the pairs such a pass
// checks. The 65536-node fleet, where the lazy sweep's pair index would no
// longer fit int32, runs the kinetic planner without any fallback (skipped
// in -short: a few seconds).
func TestAutoPlannerMatchesForced(t *testing.T) {
	type counters struct{ checked, skipped, wakeups uint64 }
	fleet := func(nodes int, side, duration float64) config.Scenario {
		sc := config.RandomWaypoint()
		sc.Nodes = nodes
		sc.Area = geo.NewRect(side, side)
		sc.Duration = duration
		sc.GenIntervalLo = 0 // traffic-free: this pins scanner behaviour only
		return sc
	}
	for _, tc := range []struct {
		name     string
		sc       config.Scenario
		want     network.Planner
		large    bool
		pinned   counters // seed 1; zero is not pinned
		fallback string   // the retirement the run takes
	}{
		{"table2", config.RandomWaypoint(), network.LazyPlanner, false,
			counters{394_641, 88_827_476, 110_342}, ""},
		// Table III's taxis have no legs: the lazy sweep retires to the
		// naive scan, whose neighbour list counts the pairs a per-tick grid
		// pass would.
		{"table3", config.EPFL(), network.LazyPlanner, false,
			counters{410_525, 2_542_114, 19_543}, "lazy:load-monitor->naive"},
		// fleet-10k's geometry: bench.Scan100kScenario at a tenth of the
		// nodes on a tenth of the area, 60 s instead of 300.
		{"fleet-10k", func() config.Scenario {
			sc := fleet(10_000, 79_057, 60)
			sc.CellSize = 500
			return sc
		}(), network.KineticPlanner, false, counters{78_854, 595_376, 3_226}, ""},
		{"fleet-65536", fleet(65536, 200_000, 60), network.KineticPlanner, true, counters{}, ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.large && testing.Short() {
				t.Skip("65536-node run is a few seconds; skipped in -short")
			}
			autoTrace, auto, _ := runScan(t, tc.sc, network.AutoPlanner)
			forcedTrace, forced, _ := runScan(t, tc.sc, tc.want)
			if auto.Perf.ScanFallback != forced.Perf.ScanFallback {
				t.Fatalf("fallback %q, forced %s run %q", auto.Perf.ScanFallback,
					plannerNames[tc.want], forced.Perf.ScanFallback)
			}
			if auto.Perf.ScanFallback != tc.fallback {
				t.Fatalf("fallback %q, want %q", auto.Perf.ScanFallback, tc.fallback)
			}
			got := counters{auto.Perf.PairsChecked, auto.Perf.PairsSkipped, auto.Perf.Wakeups}
			want := counters{forced.Perf.PairsChecked, forced.Perf.PairsSkipped, forced.Perf.Wakeups}
			if got != want {
				t.Fatalf("automatic run's scan counters %+v, forced %s run's %+v",
					got, plannerNames[tc.want], want)
			}
			if tc.pinned != (counters{}) && got != tc.pinned {
				t.Fatalf("scan counters %+v, pinned %+v", got, tc.pinned)
			}
			if forced.Perf.PairsSkipped == 0 {
				t.Fatalf("forced %s run parked nothing", plannerNames[tc.want])
			}
			if !bytes.Equal(autoTrace, forcedTrace) {
				t.Fatalf("automatic run's trace differs from the forced %s run's", plannerNames[tc.want])
			}
		})
	}
}
