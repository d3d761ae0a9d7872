package experiment

import (
	"errors"
	"fmt"
	"path/filepath"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sdsrp/internal/config"
	"sdsrp/internal/fault"
	"sdsrp/internal/world"
)

// contactFields classifies every field of config.Scenario and of the
// structs nested in it (Mobility, Group, fault.Config, fault.Churn, Energy),
// keyed type.field: true for motion-relevant fields, which stay in the
// contact key or make a scenario ineligible, false for traffic-only fields,
// which contactKey clears. A field missing here fails
// TestContactKeyClassifiesEveryField until someone classifies it.
var contactFields = map[string]bool{
	"Scenario.Name":                  false,
	"Scenario.Seed":                  true,
	"Scenario.Duration":              true,
	"Scenario.Warmup":                false,
	"Scenario.Nodes":                 true,
	"Scenario.Area":                  true,
	"Scenario.ContactTraceFile":      true,
	"Scenario.Range":                 true,
	"Scenario.Bandwidth":             false,
	"Scenario.ScanInterval":          true,
	"Scenario.BufferBytes":           false,
	"Scenario.MessageSize":           false,
	"Scenario.MessageSizeHi":         false,
	"Scenario.TTL":                   false,
	"Scenario.GenIntervalLo":         false,
	"Scenario.GenIntervalHi":         false,
	"Scenario.InitialCopies":         false,
	"Scenario.PolicyName":            false,
	"Scenario.ProtocolName":          false,
	"Scenario.ExpiryInterval":        false,
	"Scenario.PriorMeanIntermeeting": false,
	"Scenario.PriorWeight":           false,
	"Scenario.GapLambdaEstimator":    false,
	"Scenario.OracleRateMean":        false,
	"Scenario.DisableDropList":       false,
	"Scenario.PreflightEviction":     false,
	"Scenario.UseAcks":               false,
	"Scenario.MaxEvents":             false,

	"Mobility.Kind":           true,
	"Mobility.SpeedLo":        true,
	"Mobility.SpeedHi":        true,
	"Mobility.PauseLo":        true,
	"Mobility.PauseHi":        true,
	"Mobility.EpochDist":      true,
	"Mobility.Taxi":           true,
	"Mobility.SampleInterval": true,
	"Mobility.TraceDir":       true,
	"Mobility.TraceFile":      true,
	"Mobility.MapCols":        true,
	"Mobility.MapRows":        true,
	"Mobility.MapSpacing":     true,
	"Mobility.MapDropProb":    true,
	"Mobility.MapFile":        true,
	"Mobility.MapSnap":        true,

	"Group.Name":        true,
	"Group.Count":       true,
	"Group.BufferBytes": true,
	"Group.Range":       true,

	"Energy.Capacity":   true,
	"Energy.ScanPerSec": true,
	"Energy.TxPerSec":   true,
	"Energy.RxPerSec":   true,

	"Config.TransferLossProb":  false,
	"Config.LinkFlapMeanUp":    false,
	"Config.BandwidthJitterLo": false,
	"Config.BandwidthJitterHi": false,
	"Config.BlackHoleFraction": false,
	"Config.SelfishFraction":   false,

	"Churn.MeanUp":       true,
	"Churn.MeanDown":     true,
	"Churn.WipeOnReboot": true,
	"Churn.Groups":       true,
}

// nestedStructs are the struct types whose fields contactFields classifies
// one by one; any other struct-typed field is classified as a whole.
var nestedStructs = map[reflect.Type]bool{
	reflect.TypeOf(config.Scenario{}): true,
	reflect.TypeOf(config.Mobility{}): true,
	reflect.TypeOf(config.Group{}):    true,
	reflect.TypeOf(config.Energy{}):   true,
	reflect.TypeOf(fault.Config{}):    true,
	reflect.TypeOf(fault.Churn{}):     true,
}

// scenarioFields calls visit with every classified field of typ: its
// type.field name and a function reaching that field from a scenario value.
// Slices of a nested struct are reached through their first element.
func scenarioFields(typ reflect.Type, get func(reflect.Value) reflect.Value, visit func(string, func(reflect.Value) reflect.Value)) {
	for i := range typ.NumField() {
		f := typ.Field(i)
		field := func(root reflect.Value) reflect.Value { return get(root).Field(i) }
		switch {
		case nestedStructs[f.Type]:
			scenarioFields(f.Type, field, visit)
		case f.Type.Kind() == reflect.Slice && nestedStructs[f.Type.Elem()]:
			scenarioFields(f.Type.Elem(), func(root reflect.Value) reflect.Value { return field(root).Index(0) }, visit)
		default:
			visit(typ.Name()+"."+f.Name, field)
		}
	}
}

// perturb changes v to a different value of its type.
func perturb(t *testing.T, name string, v reflect.Value) {
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(!v.Bool())
	case reflect.Int, reflect.Int64:
		v.SetInt(v.Int() + 1)
	case reflect.Uint64:
		v.SetUint(v.Uint() + 1)
	case reflect.Float64:
		v.SetFloat(v.Float() + 1)
	case reflect.String:
		v.SetString(v.String() + "x")
	case reflect.Slice:
		v.Set(reflect.Append(v, reflect.Zero(v.Type().Elem())))
	case reflect.Struct:
		perturb(t, name, v.Field(0))
	default:
		t.Fatalf("%s: cannot perturb a %s", name, v.Kind())
	}
}

// keyBase is an eligible scenario with one node group, so that group
// fields have an element to perturb.
func keyBase() config.Scenario {
	sc := config.RandomWaypoint()
	sc.Groups = []config.Group{{Name: "walkers", Count: 100, Mobility: sc.Mobility}}
	return sc
}

// TestContactKeyClassifiesEveryField pins contactKey's split field by
// field: changing a traffic-only field must leave the key (and eligibility)
// alone, changing a motion-relevant one must change the key or make the
// scenario ineligible, and every field must be classified, so a field added
// to the scenario fails here until someone decides which side it is on.
func TestContactKeyClassifiesEveryField(t *testing.T) {
	baseKey, ok := contactKey(keyBase())
	if !ok {
		t.Fatal("base scenario is not eligible for contact sharing")
	}
	seen := make(map[string]bool)
	scenarioFields(reflect.TypeOf(config.Scenario{}), func(v reflect.Value) reflect.Value { return v },
		func(name string, field func(reflect.Value) reflect.Value) {
			motion, classified := contactFields[name]
			if !classified {
				t.Errorf("field %s is not classified as motion-relevant or traffic-only (contactFields, contactKey)", name)
				return
			}
			seen[name] = true
			sc := keyBase()
			perturb(t, name, field(reflect.ValueOf(&sc).Elem()))
			key, ok := contactKey(sc)
			switch {
			case motion && ok && key == baseKey:
				t.Errorf("motion-relevant field %s is missing from the contact key", name)
			case !motion && (!ok || key != baseKey):
				t.Errorf("traffic-only field %s changes the contact key or eligibility", name)
			}
		})
	for name := range contactFields {
		if !seen[name] {
			t.Errorf("contactFields classifies %s, which the scenario no longer has", name)
		}
	}
}

// sameOutcome reports whether two results agree on everything a sweep
// reports: the summary, the contact digest, and the engine's event count
// and peak queue.
func sameOutcome(a, b world.Result) bool {
	return a.Summary == b.Summary && a.Contacts == b.Contacts &&
		a.MeanContactDuration == b.MeanContactDuration &&
		a.Perf.Events == b.Perf.Events && a.Perf.PeakQueue == b.Perf.PeakQueue
}

// standalone builds and runs sc alone, as the reference a shared run must
// reproduce.
func standalone(t *testing.T, sc config.Scenario) world.Result {
	t.Helper()
	w, err := world.Build(sc)
	if err != nil {
		t.Fatalf("%s: standalone build: %v", sc.Name, err)
	}
	res, err := w.Run()
	if err != nil {
		t.Fatalf("%s: standalone run: %v", sc.Name, err)
	}
	return res
}

// coupledLinks reports whether sc's links may depend on more than motion.
func coupledLinks(sc config.Scenario) bool {
	_, ok := contactKey(sc)
	return !ok
}

// TestSweepsMatchStandaloneWorlds runs every registered experiment at the
// bench suite's reduced scale, at one and four workers, and requires every
// run to equal a standalone world of its scenario: sharing one scan across
// a sweep must be invisible in results. At one worker the first run of each
// group records and every other member replays, so the replay markers must
// count exactly the group members beyond the first: sharing really happened
// on every spec with a motion-identical pair, and never on a run with churn
// or a battery. fig8buffer runs two seeds, so two groups form.
func TestSweepsMatchStandaloneWorlds(t *testing.T) {
	ref := make(map[string]world.Result)
	for _, workers := range []int{1, 4} {
		for _, spec := range All() {
			o := Options{Scale: 0.05, Nodes: 20, Workers: workers, Seeds: []uint64{1}}
			if spec.Name == "fig8buffer" {
				o.Seeds = []uint64{1, 2}
			}
			var mu sync.Mutex
			var results []world.Result
			o.OnResult = func(r world.Result) {
				mu.Lock()
				results = append(results, r)
				mu.Unlock()
			}
			if _, err := spec.Run(o); err != nil {
				t.Fatalf("%s at %d workers: %v", spec.Name, workers, err)
			}
			groups := make(map[string]int)
			replayed, want := 0, 0
			for _, r := range results {
				id := fmt.Sprintf("%#v", r.Scenario)
				alone, ok := ref[id]
				if !ok {
					alone = standalone(t, r.Scenario)
					ref[id] = alone
				}
				if !sameOutcome(r, alone) {
					t.Errorf("%s at %d workers: %s differs from its standalone world:\nsweep:      %+v\nstandalone: %+v",
						spec.Name, workers, r.Scenario.Name, r, alone)
				}
				if r.Perf.Replayed {
					replayed++
					if coupledLinks(r.Scenario) {
						t.Errorf("%s: %s replayed contacts although churn or a battery couples its links",
							spec.Name, r.Scenario.Name)
					}
				}
				if key, ok := contactKey(r.Scenario); ok {
					if groups[key]++; groups[key] > 1 {
						want++
					}
				}
			}
			switch {
			case workers == 1 && replayed != want:
				t.Errorf("%s: %d runs replayed, want %d (every group member but the first)", spec.Name, replayed, want)
			case workers == 1 && len(results) > 0 && spec.Name != "extra-energy" && replayed == 0:
				t.Errorf("%s: no run shared its contact schedule", spec.Name)
			}
		}
	}
}

// failureGroup is a motion-identical group of four runs, long enough
// (over 8192 events) for the wall-clock watchdog to fire.
func failureGroup() []config.Scenario {
	var scs []config.Scenario
	for _, pol := range PaperPolicies {
		sc := tinyScenario(5)
		sc.Duration = 10000
		sc.TTL = 2000
		sc.PolicyName = pol
		sc.Name = "share-" + pol
		scs = append(scs, sc)
	}
	return scs
}

// expire returns a runOne that stops the first n attempts of the run named
// victim with an already-passed wall-clock deadline, and runs every other
// attempt like the runner does.
func expire(victim string, n int64) func(config.Scenario, ...world.BuildOption) (world.Result, error) {
	var hits atomic.Int64
	return func(sc config.Scenario, opts ...world.BuildOption) (world.Result, error) {
		w, err := world.Build(sc, opts...)
		if err != nil {
			return world.Result{}, err
		}
		if sc.Name == victim && hits.Add(1) <= n {
			w.Engine.SetWallDeadline(time.Now().Add(-time.Second))
		}
		return w.Run()
	}
}

// TestContactSharingFailurePaths checks that only a recorder that reached
// its horizon publishes. The group's first run fails while recording (an
// event budget, the wall-clock watchdog, a panic) or fails once and is
// retried, or was already journaled when the sweep resumes; every other
// run must still equal its standalone world. With one worker the run after
// a failed recorder records afresh, so it must not replay, and the runs
// after it must: a partial plan published by the failed attempt would
// have stopped the next run past its horizon.
func TestContactSharingFailurePaths(t *testing.T) {
	isPanic := func(err error) bool {
		var pe *PanicError
		return errors.As(err, &pe)
	}
	is := func(target error) func(error) bool {
		return func(err error) bool { return errors.Is(err, target) }
	}
	cases := []struct {
		name string
		// setup adjusts the group and options; it returns how run 0 must
		// fail, or nil when run 0 must succeed.
		setup func(t *testing.T, scs []config.Scenario, o *Options) func(error) bool
		// recorder is the index of the run expected to publish the plan.
		recorder int
	}{
		{"budget", func(_ *testing.T, scs []config.Scenario, _ *Options) func(error) bool {
			scs[0].MaxEvents = 3000
			return is(world.ErrBudgetExceeded)
		}, 1},
		{"timeout", func(_ *testing.T, scs []config.Scenario, o *Options) func(error) bool {
			o.runOne = expire(scs[0].Name, 1)
			return is(world.ErrRunTimeout)
		}, 1},
		{"panic", func(_ *testing.T, scs []config.Scenario, _ *Options) func(error) bool {
			scs[0].PolicyName = panicSendPolicy
			return isPanic
		}, 1},
		{"retry", func(_ *testing.T, scs []config.Scenario, o *Options) func(error) bool {
			o.Retries = 1
			o.runOne = expire(scs[0].Name, 1)
			return nil
		}, 0},
		{"resume", func(t *testing.T, scs []config.Scenario, o *Options) func(error) bool {
			j, err := OpenJournal(filepath.Join(t.TempDir(), "runs.jsonl"))
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { j.Close() })
			if _, err := (Options{Workers: 1, Journal: j}).RunScenarios(scs[:1]); err != nil {
				t.Fatal(err)
			}
			o.Journal, o.Resume = j, true
			return nil
		}, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			scs := failureGroup()
			o := Options{Workers: 1}
			failed := tc.setup(t, scs, &o)
			res, err := o.RunScenarios(scs)
			switch {
			case failed == nil && err != nil:
				t.Fatalf("sweep failed: %v", err)
			case failed != nil && !failed(err):
				t.Fatalf("run 0 did not fail as expected: %v", err)
			}
			first := 1
			if failed == nil {
				first = 0
			}
			for i := first; i < len(scs); i++ {
				if !sameOutcome(res[i], standalone(t, scs[i])) {
					t.Errorf("run %d differs from its standalone world", i)
				}
				if want := i > tc.recorder; res[i].Perf.Replayed != want {
					t.Errorf("run %d replayed = %v, want %v", i, res[i].Perf.Replayed, want)
				}
			}
		})
	}
}
