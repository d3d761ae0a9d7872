package experiment

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"sdsrp/internal/config"
	"sdsrp/internal/geo"
	"sdsrp/internal/network"
	"sdsrp/internal/obs"
	"sdsrp/internal/stats"
	"sdsrp/internal/world"
)

// TestF64RoundTrip checks the journal float type survives JSON bit-exactly,
// including the values plain JSON cannot carry (an all-forwards run has
// OverheadRatio = +Inf).
func TestF64RoundTrip(t *testing.T) {
	cases := []float64{0, 1, -1, 1.0 / 3.0, math.Pi, 5e-324, math.MaxFloat64,
		math.Inf(1), math.Inf(-1), math.NaN()}
	for _, v := range cases {
		data, err := json.Marshal(F64(v))
		if err != nil {
			t.Fatalf("marshal %v: %v", v, err)
		}
		var back F64
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatalf("unmarshal %s: %v", data, err)
		}
		if math.IsNaN(v) {
			if !math.IsNaN(float64(back)) {
				t.Errorf("NaN round-tripped to %v", back)
			}
			continue
		}
		if float64(back) != v {
			t.Errorf("%v round-tripped to %v (wire %s)", v, back, data)
		}
	}
}

// TestJournalResultRoundTrip runs real scenarios and checks the journaled
// Result restores field-for-field equal. The dense run's kinetic planner
// retires to the naive scan, so its Perf.ScanFallback must survive too.
func TestJournalResultRoundTrip(t *testing.T) {
	dense := config.RandomWaypoint()
	dense.Nodes, dense.Area, dense.Duration = 400, geo.NewRect(1000, 1000), 600
	for _, tc := range []struct {
		name string
		sc   config.Scenario
	}{{"rwp", tinyScenario(1)}, {"dense", dense}} {
		t.Run(tc.name, func(t *testing.T) {
			w, err := world.Build(tc.sc)
			if err != nil {
				t.Fatal(err)
			}
			res, err := w.Run()
			if err != nil {
				t.Fatal(err)
			}
			if tc.name == "dense" && res.Perf.ScanFallback == "" {
				t.Fatal("dense run's planner held; the case no longer covers ScanFallback")
			}
			data, err := json.Marshal(newJournalResult(res))
			if err != nil {
				t.Fatal(err)
			}
			var jr JournalResult
			if err := json.Unmarshal(data, &jr); err != nil {
				t.Fatal(err)
			}
			if got := jr.Restore(); !resultsEqual(got, res) {
				t.Errorf("restored result differs:\n got %+v\nwant %+v", got, res)
			}
		})
	}
}

// TestJournalReplayedMarker checks the contact-replay marker round-trips
// through the journal, is omitted for scanning runs (so their lines are
// byte-identical to journals written before the marker existed), and that
// such older lines restore as scanning runs.
func TestJournalReplayedMarker(t *testing.T) {
	var res world.Result
	res.Perf.Events = 12
	res.Perf.Replayed = true
	data, err := json.Marshal(newJournalResult(res))
	if err != nil {
		t.Fatal(err)
	}
	var jr JournalResult
	if err := json.Unmarshal(data, &jr); err != nil {
		t.Fatal(err)
	}
	if got := jr.Restore(); !got.Perf.Replayed || !resultsEqual(got, res) {
		t.Errorf("replayed result restored as %+v", got.Perf)
	}
	res.Perf.Replayed = false
	if data, _ = json.Marshal(newJournalResult(res)); strings.Contains(string(data), "replayed") {
		t.Errorf("scanning run journaled with a replay field: %s", data)
	}
	old := `{"perf":{"sim_seconds":900,"events":12,"peak_queue":3,"wall_seconds":1,"pairs_checked":40,"pairs_skipped":5,"wakeups":2}}`
	jr = JournalResult{}
	if err := json.Unmarshal([]byte(old), &jr); err != nil {
		t.Fatalf("pre-marker journal line: %v", err)
	}
	if got := jr.Restore(); got.Perf.Replayed || got.Perf.PairsChecked != 40 {
		t.Errorf("pre-marker line restored as %+v", got.Perf)
	}
}

// TestJournalLinePinned pins the journal line of a fixed Result, with
// OverheadRatio = +Inf, energy enabled, a scan fallback, the replay marker
// and a fixed wall time, to the bytes journals have always held, and
// checks the line restores field for field.
func TestJournalLinePinned(t *testing.T) {
	res := world.Result{
		Summary: stats.Summary{Created: 40, Forwards: 17, Started: 21, Aborted: 3, Refused: 1,
			Lost: 2, PolicyDrops: 9, ExpiredDrops: 4, AckPurges: 5, Duplicates: 6,
			OverheadRatio: math.Inf(1)},
		Scenario:            config.Scenario{Name: "pinned", Seed: 7, Nodes: 3},
		Contacts:            11,
		MeanContactDuration: 123.456789,
		Energy: network.EnergyReport{Enabled: true, DeadNodes: 2, TotalUsed: 1999.5,
			MeanLevel: 0.125, FirstDeath: 568.25},
		Perf: obs.RunStats{SimSeconds: 3600, Events: 4071, PeakQueue: 12, WallSeconds: 0.0625,
			PairsChecked: 86916, PairsSkipped: 17757979, Wakeups: 19375,
			ScanFallback: "kinetic:load-monitor->naive", Replayed: true},
	}
	path := filepath.Join(t.TempDir(), "runs.jsonl")
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Record(Entry{Digest: "d", Name: "pinned", Seed: 7, Policy: "SDSRP",
		Status: StatusDone, Attempts: 1, Result: newJournalResult(res)}); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	scenario, err := json.Marshal(res.Scenario)
	if err != nil {
		t.Fatal(err)
	}
	want := `{"digest":"d","name":"pinned","seed":7,"policy":"SDSRP","status":"done","attempts":1,` +
		`"result":{"scenario":` + string(scenario) +
		`,"summary":{"created":40,"delivered":0,"forwards":17,"started":21,"aborted":3,"refused":1,` +
		`"lost":2,"policy_drops":9,"expired_drops":4,"ack_purges":5,"duplicates":6,"delivery_ratio":0,` +
		`"avg_hops":0,"overhead_ratio":"+Inf","avg_latency":0,"median_latency":0,"p95_latency":0},` +
		`"contacts":11,"mean_contact_duration":123.456789,` +
		`"energy":{"enabled":true,"dead_nodes":2,"total_used":1999.5,"mean_level":0.125,"first_death":568.25},` +
		`"perf":{"sim_seconds":3600,"events":4071,"peak_queue":12,"wall_seconds":0.0625,` +
		`"pairs_checked":86916,"pairs_skipped":17757979,"wakeups":19375,` +
		`"scan_fallback":"kinetic:load-monitor-\u003enaive","replayed":true}}}` + "\n"
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != want {
		t.Fatalf("journal line changed:\n got %s\nwant %s", data, want)
	}
	j, err = OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	e, ok := j.Lookup("d")
	if !ok || e.Result == nil {
		t.Fatalf("reloaded journal lost the entry: %+v", e)
	}
	if got := e.Result.Restore(); !reflect.DeepEqual(got, res) {
		t.Errorf("restored result differs:\n got %+v\nwant %+v", got, res)
	}
}

// TestJournalCoversEveryField sets every field of the journaled result
// structs to a distinct non-zero value and round-trips them, so a field the
// encoder skips, or one added without a json tag, fails here. Real runs
// leave many of them zero (energy is off in most scenarios).
func TestJournalCoversEveryField(t *testing.T) {
	var res world.Result
	n := 0
	for _, v := range []reflect.Value{reflect.ValueOf(&res.Summary).Elem(),
		reflect.ValueOf(&res.Energy).Elem(), reflect.ValueOf(&res.Perf).Elem()} {
		for i := 0; i < v.NumField(); i++ {
			n++
			f := v.Field(i)
			switch f.Kind() {
			case reflect.Int:
				f.SetInt(int64(n))
			case reflect.Uint64:
				f.SetUint(uint64(n))
			case reflect.Float64:
				f.SetFloat(float64(n) + 0.25)
			case reflect.String:
				f.SetString(fmt.Sprintf("s%d", n))
			case reflect.Bool:
				f.SetBool(true)
			default:
				t.Fatalf("%s.%s: no distinct value for kind %s", v.Type(), v.Type().Field(i).Name, f.Kind())
			}
		}
	}
	data, err := json.Marshal(newJournalResult(res))
	if err != nil {
		t.Fatal(err)
	}
	var jr JournalResult
	if err := json.Unmarshal(data, &jr); err != nil {
		t.Fatal(err)
	}
	if got := jr.Restore(); !reflect.DeepEqual(got, res) {
		t.Errorf("restored result differs:\n got %+v\nwant %+v\nwire %s", got, res, data)
	}
}

// resultsEqual compares two Results field for field, NaN equal to NaN,
// except WallSeconds, which is host-dependent.
func resultsEqual(a, b world.Result) bool {
	a.Perf.WallSeconds = 0
	b.Perf.WallSeconds = 0
	return equalNaN(reflect.ValueOf(a), reflect.ValueOf(b))
}

// equalNaN reports whether a and b hold the same plain data: structs,
// slices and arrays element by element (a nil slice equals an empty one, as
// on the wire), NaN equal to NaN.
func equalNaN(a, b reflect.Value) bool {
	switch a.Kind() {
	case reflect.Float64:
		x, y := a.Float(), b.Float()
		return x == y || math.IsNaN(x) && math.IsNaN(y)
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if !equalNaN(a.Field(i), b.Field(i)) {
				return false
			}
		}
		return true
	case reflect.Slice, reflect.Array:
		if a.Len() != b.Len() {
			return false
		}
		for i := 0; i < a.Len(); i++ {
			if !equalNaN(a.Index(i), b.Index(i)) {
				return false
			}
		}
		return true
	default:
		return a.Equal(b)
	}
}

func entry(digest, status string) Entry {
	return Entry{Digest: digest, Name: "n-" + digest, Seed: 1, Policy: "SDSRP", Status: status, Attempts: 1}
}

// TestJournalTruncatedTail checks that a torn final line — the crash
// signature of dying mid-append — is dropped, the surviving entries load,
// and the healed file is whole again.
func TestJournalTruncatedTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "runs.jsonl")
	var body strings.Builder
	for _, e := range []Entry{entry("aaa", StatusDone), entry("bbb", StatusDone)} {
		line, _ := json.Marshal(e)
		body.Write(line)
		body.WriteByte('\n')
	}
	body.WriteString(`{"digest":"ccc","name":"n-ccc","se`) // torn mid-append
	if err := os.WriteFile(path, []byte(body.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if j.Len() != 2 {
		t.Fatalf("Len = %d, want 2 (torn tail dropped)", j.Len())
	}
	if _, ok := j.Lookup("ccc"); ok {
		t.Error("torn entry survived")
	}
	// The open healed the file: every line on disk must now parse.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for i, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		var e Entry
		if err := json.Unmarshal([]byte(line), &e); err != nil {
			t.Errorf("healed journal line %d still corrupt: %v", i+1, err)
		}
	}
}

// TestJournalMiddleCorruption checks interior damage is an error, not a
// silent drop: those entries recorded completed work that would otherwise
// silently re-run or, worse, half-resume.
func TestJournalMiddleCorruption(t *testing.T) {
	path := filepath.Join(t.TempDir(), "runs.jsonl")
	good, _ := json.Marshal(entry("aaa", StatusDone))
	body := "not json at all\n" + string(good) + "\n"
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenJournal(path); err == nil {
		t.Fatal("corrupt interior line loaded without error")
	}
}

// TestJournalLastWriterWins checks duplicate digests resolve to the latest
// record, across both in-memory recording and a reload.
func TestJournalLastWriterWins(t *testing.T) {
	path := filepath.Join(t.TempDir(), "runs.jsonl")
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	first := entry("aaa", StatusFailed)
	first.Error = "boom"
	second := entry("aaa", StatusDone)
	second.Attempts = 2
	for _, e := range []Entry{first, second} {
		if err := j.Record(e); err != nil {
			t.Fatal(err)
		}
	}
	if e, _ := j.Lookup("aaa"); e.Status != StatusDone || e.Attempts != 2 {
		t.Fatalf("in-memory lookup = %+v, want the second record", e)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	j2, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if j2.Len() != 1 {
		t.Fatalf("reloaded Len = %d, want 1 (deduplicated)", j2.Len())
	}
	if e, _ := j2.Lookup("aaa"); e.Status != StatusDone || e.Attempts != 2 {
		t.Fatalf("reloaded lookup = %+v, want the second record", e)
	}
}

// TestJournalRecordAfterClose checks a closed journal refuses appends
// instead of panicking on a nil file.
func TestJournalRecordAfterClose(t *testing.T) {
	j, err := OpenJournal(filepath.Join(t.TempDir(), "runs.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if err := j.Record(entry("aaa", StatusDone)); err == nil {
		t.Fatal("Record on closed journal succeeded")
	}
}

// TestDigestStability checks the digest is deterministic and sensitive to
// every run-relevant knob: equal scenarios collide, any mutation separates.
func TestDigestStability(t *testing.T) {
	base := tinyScenario(1)
	d1, err := Digest(base)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := Digest(tinyScenario(1))
	if err != nil {
		t.Fatal(err)
	}
	if d1 != d2 {
		t.Fatalf("equal scenarios digest differently: %s vs %s", d1, d2)
	}
	mutants := map[string]func(*config.Scenario){
		"seed":       func(sc *config.Scenario) { sc.Seed = 2 },
		"policy":     func(sc *config.Scenario) { sc.PolicyName = "SprayAndWait" },
		"duration":   func(sc *config.Scenario) { sc.Duration *= 2 },
		"max-events": func(sc *config.Scenario) { sc.MaxEvents = 1000 },
	}
	for name, mutate := range mutants {
		sc := tinyScenario(1)
		mutate(&sc)
		d, err := Digest(sc)
		if err != nil {
			t.Fatal(err)
		}
		if d == d1 {
			t.Errorf("mutating %s left the digest unchanged", name)
		}
	}
}
