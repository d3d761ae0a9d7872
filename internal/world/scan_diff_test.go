package world

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"sdsrp/internal/config"
	"sdsrp/internal/fault"
	"sdsrp/internal/geo"
	"sdsrp/internal/mobility"
	"sdsrp/internal/network"
	"sdsrp/internal/obs"
	"sdsrp/internal/rng"
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
// first diverging trace line or on a different count of pairs checked.
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
	// The list's period is pinned by TestListNeverMissesAContact
	// (internal/network); whatever it is, the list must check exactly the
	// pairs the reference's per-tick grid pass checks.
	if resO.Perf.PairsChecked != resR.Perf.PairsChecked {
		t.Errorf("%s scan checked %d pairs, the reference %d", mode, resO.Perf.PairsChecked, resR.Perf.PairsChecked)
	}
}

// strayTrace is the border-strays family's ONE movement file, which
// TestMain writes once per test binary.
var strayTrace string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "sdsrp-world-test-")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	strayTrace = filepath.Join(dir, "strays.one")
	code := 1
	if err := writeStrayTrace(strayTrace); err != nil {
		fmt.Fprintln(os.Stderr, err)
	} else {
		code = m.Run()
	}
	os.RemoveAll(dir)
	os.Exit(code)
}

// writeStrayTrace writes the border-strays family's trace: 32 walkers on
// random-waypoint legs at 2 m/s for 1 200 s, under a header whose area is
// 300 × 1 500 m, three fine cells wide at the preset's 100 m range.
// Walkers 0–7 roam 400 to 2 000 m left of the area, where every position
// clamps into the border column's cells; the other 24 walk inside it.
func writeStrayTrace(path string) error {
	const (
		w, h    = 300.0, 1500.0
		speed   = 2.0
		horizon = 1200.0
		strays  = 8
	)
	s := rng.New(7)
	var b strings.Builder
	fmt.Fprintf(&b, "0 %g 0 %g 0 %g\n", horizon, w, h)
	for i := range 32 {
		lo, hi := 0.0, w
		if i < strays {
			lo, hi = -2000, -400
		}
		p := geo.Point{X: s.Uniform(lo, hi), Y: s.Uniform(0, h)}
		for t := 0.0; ; {
			fmt.Fprintf(&b, "%g n%d %g %g\n", t, i, p.X, p.Y)
			if t >= horizon {
				break
			}
			q := geo.Point{X: s.Uniform(lo, hi), Y: s.Uniform(0, h)}
			t += math.Sqrt(p.Dist2(q)) / speed
			p = q
		}
	}
	return os.WriteFile(path, []byte(b.String()), 0o644)
}

// diffFamilies is the scenario matrix shared by every scanner-equivalence
// test: all mobility kinds, walkers that pause, per-node ranges, cells
// wider than every pair's range, walkers outside the area, churn/flap
// faults, and energy death.
// TestNaiveScanMatchesReference holds the naive scan to the reference scan,
// TestRunAheadMatchesLockstep (ahead_test.go) the run-ahead scan to the
// lockstep one, and TestWorkerCountsMatchSerial (concurrency_test.go) runs
// it serial-vs-concurrent.
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
			return sc
		},
		"groups-static-relays-per-node-ranges": func() config.Scenario {
			// Static relays (MaxSpeed 0) with longer radios among RWP
			// walkers: covers per-node ranges and relays that never close
			// a gap on their own.
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
			// Walkers that stop for up to two minutes between legs, so
			// that nodes rest through list periods sized for their top
			// speed.
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
			// churn-crash and reboot: the scan must keep checking them, or
			// it would lose every post-reboot re-up the reference scan
			// emits. Dense relays guarantee in-range static pairs.
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
		"border-strays": func() config.Scenario {
			// Trace playback with a quarter of the walkers outside the
			// trace's area (writeStrayTrace). The scan clamps their cells
			// into the border column, and most of them are farther than
			// the list radius from every walker, so they are on no listed
			// pair: a tick the list serves does not sample them, yet one
			// of them is often the smallest id in a border cell holding an
			// up candidate, which rank must find (9 such ranks per seed).
			// The trace is the same at every seed; the traffic is not.
			sc := diffBase()
			sc.Mobility = config.Mobility{Kind: config.MobilityONEFile, TraceFile: strayTrace}
			return sc
		},
		"wide-cells": func() config.Scenario {
			// One 500 m radio among the 100 m walkers: the largest range
			// sets fine cells five times the range of every pair, so the
			// walker that ranks an up candidate's cell need not be on any
			// of the tick's candidates, and the list's radius, 1 500 m,
			// and period, about 250 ticks, are the matrix's longest.
			sc := diffBase()
			sc.Groups = []config.Group{
				{Name: "walkers", Count: sc.Nodes - 1, Mobility: sc.Mobility},
				{Name: "beacon", Count: 1, Range: 5 * sc.Range, Mobility: sc.Mobility},
			}
			return sc
		},
	}
}

// TestNaiveScanMatchesReference is the neighbour list's differential test:
// on every family and seed, the naive scan, which rebuilds its list every K
// ticks, must emit the reference scan's event stream byte for byte and
// check the same pairs. It runs AutoPlanner, the value every production
// caller passes.
func TestNaiveScanMatchesReference(t *testing.T) {
	for name, mk := range diffFamilies() {
		for _, seed := range []uint64{1, 2, 3} {
			sc := mk()
			sc.Seed = seed
			sc.Name = fmt.Sprintf("list-%s-%d", name, seed)
			t.Run(sc.Name, func(t *testing.T) {
				t.Parallel()
				assertPlannerMatchesReference(t, sc, network.AutoPlanner)
			})
		}
	}
}

// TestAutoPlannerMatchesForced pins the production scan's work on the
// benchmark's worlds: Table II and Table III worlds, a shortened fleet-10k
// world, a dense one, 400 nodes on 1 km², and a 65536-node fleet each run
// once under AutoPlanner, the naive scan, and their seed-1 pairs-checked
// counts are pinned. They equal a per-tick grid pass's (the reference
// scan's), so the neighbour lists must check exactly the pairs such a pass
// checks at every fleet size from 100 to 65 536 nodes;
// TestNaiveScanMatchesReference holds the list to the reference itself on
// its 16- to 24-node families.
func TestAutoPlannerMatchesForced(t *testing.T) {
	fleet := func(nodes int, side, duration float64) config.Scenario {
		sc := config.RandomWaypoint()
		sc.Nodes = nodes
		sc.Area = geo.NewRect(side, side)
		sc.Duration = duration
		sc.GenIntervalLo = 0 // traffic-free: this pins scanner behaviour only
		return sc
	}
	for _, tc := range []struct {
		name   string
		sc     config.Scenario
		pinned uint64 // pairs checked, seed 1
	}{
		{"table2", config.RandomWaypoint(), 528_148},
		{"table3", config.EPFL(), 369_362},
		{"dense", fleet(400, 1000, 600), 4_398_738},
		// fleet-10k's geometry: bench.Scan100kScenario at a tenth of the
		// nodes on a tenth of the area, 60 s instead of 300.
		{"fleet-10k", fleet(10_000, 79_057, 60), 31_352},
		{"fleet-65536", fleet(65536, 200_000, 60), 203_810},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, auto, _ := runScan(t, tc.sc, network.AutoPlanner)
			if got := auto.Perf.PairsChecked; got != tc.pinned {
				t.Fatalf("pairs checked %d, pinned %d", got, tc.pinned)
			}
		})
	}
}
