package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"sdsrp/internal/bench"
	"sdsrp/internal/config"
	"sdsrp/internal/obs"
	"sdsrp/internal/world"
)

// testScale shortens every workload's horizon so both modes run in seconds.
const testScale = 0.05

var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

type listedMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []listedMetric `json:"end_to_end"`
	PerLayer []listedMetric `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return bf
}

// checkReport renders a run's output and checks it against the metrics
// BENCHMARK.json lists for the mode.
func checkReport(t *testing.T, metrics []metric, o *outcome, listed []listedMetric) {
	t.Helper()
	for _, p := range o.problems {
		t.Errorf("self-check: %s", p)
	}
	var out bytes.Buffer
	if err := report(&out, metrics, o); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	printed := map[string]string{}
	for _, l := range lines[:len(lines)-1] {
		f := strings.Fields(l)
		if len(f) != 3 {
			t.Fatalf("line %q is not `name value unit`", l)
		}
		if !metricName.MatchString(f[0]) {
			t.Errorf("metric name %q does not match %s", f[0], metricName)
		}
		if _, dup := printed[f[0]]; dup {
			t.Errorf("metric %q printed twice", f[0])
		}
		if _, err := strconv.ParseFloat(f[1], 64); err != nil {
			t.Errorf("metric %q: value %q: %v", f[0], f[1], err)
		}
		printed[f[0]] = f[2]
	}
	if v := printed["fail_ratio"]; v != "ratio" {
		t.Errorf("fail_ratio printed with unit %q", v)
	}
	if !strings.HasPrefix(lines[len(lines)-2], "fail_ratio 0 ") {
		t.Errorf("fail_ratio line %q, want 0", lines[len(lines)-2])
	}
	var res jsonResult
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Errorf("result correct=%v failed=%d attempted=%d", res.Correct, res.Failed, res.Attempted)
	}
	if len(res.Metrics) != len(listed) {
		t.Errorf("JSON carries %d metrics, BENCHMARK.json lists %d", len(res.Metrics), len(listed))
	}
	for _, m := range listed {
		if unit, ok := printed[m.Name]; !ok || unit != m.Unit {
			t.Errorf("metric %s printed with unit %q (printed: %v), want %q", m.Name, unit, ok, m.Unit)
		}
		if jm, ok := res.Metrics[m.Name]; !ok || jm.Unit != m.Unit {
			t.Errorf("JSON metric %s = %+v (present %v), want unit %q", m.Name, jm, ok, m.Unit)
		}
	}
}

func TestBenchmarkFileListsTheWorkloads(t *testing.T) {
	bf := readBenchmarkFile(t)
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(bf.Workloads), len(workloads))
	}
	for i, wl := range workloads {
		if got := bf.Workloads[i]; got.Name != wl.name || got.Why != wl.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, the program %q: %q", i, got, wl.name, wl.why)
		}
	}
}

// TestWorkloadsBothModes runs every workload at a shortened horizon, end to
// end and traced, and checks the printed metrics and self-checks.
func TestWorkloadsBothModes(t *testing.T) {
	bf := readBenchmarkFile(t)
	for _, wl := range workloads {
		t.Run(wl.name, func(t *testing.T) {
			metrics, o := endToEnd(wl, 1, 0, testScale)
			checkReport(t, metrics, o, bf.EndToEnd)

			log := newSpanLog()
			metrics, o = traced(wl, 1, testScale, log)
			checkReport(t, metrics, o, bf.PerLayer)
			path := filepath.Join(t.TempDir(), "spans.json")
			if err := writeSpans(path, log.spans); err != nil {
				t.Fatal(err)
			}
			names := map[string]bool{}
			for i, s := range readSpans(t, path) {
				names[s.Name] = true
				if s.Parent >= i || s.End < s.Start || s.Self < -1e-9 {
					t.Errorf("span %d %+v: parent must precede it, and end and self time not be negative", i, s)
				}
			}
			for _, n := range []string{"workload", "world", "build", "run", "run.traced", "replay.gossip", "run.policy", "run.scan_twin"} {
				if !names[n] {
					t.Errorf("no %q span", n)
				}
			}
		})
	}
}

// readSpans reads a file written by writeSpans.
func readSpans(t *testing.T, path string) []span {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var f spanFile
	if err := json.Unmarshal(data, &f); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	return f.Spans
}

func TestSpansRoundTrip(t *testing.T) {
	spans := []span{
		{Name: "workload", Parent: -1, Start: 0, End: 10},
		{Name: "a", Parent: 0, Start: 1, End: 3},
		{Name: "b", Parent: 0, Start: 3.5, End: 6},
		{Name: "c", Parent: 2, Start: 4, End: 5.5}, // grandchild of the root
		{Name: "d", Parent: 0, Start: 8, End: 9},
	}
	path := filepath.Join(t.TempDir(), "spans.json")
	if err := writeSpans(path, spans); err != nil {
		t.Fatal(err)
	}
	got := readSpans(t, path)
	if len(got) != len(spans) {
		t.Fatalf("read %d spans, wrote %d", len(got), len(spans))
	}
	for i, self := range []float64{4.5, 2, 1, 1.5, 1} {
		want := spans[i]
		want.Self = self
		if got[i] != want {
			t.Errorf("span %d: read %+v, want %+v", i, got[i], want)
		}
	}
}

// TestGossipReplayCatchesSkippedDrop drops one recorded drop from the
// captured stream: the replayed tables must then disagree with the live
// ones, which fails the world.
func TestGossipReplayCatchesSkippedDrop(t *testing.T) {
	tr := &capture{}
	w, err := world.Build(bench.SmokeScenario(), world.WithTracer(tr))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Run(); err != nil {
		t.Fatal(err)
	}
	g, err := checkGossip(tr.events, w.Hosts)
	if err != nil {
		t.Fatalf("full replay: %v", err)
	}
	if g.records == 0 || g.merges == 0 {
		t.Fatalf("smoke run recorded %d drops and %d merges; the test needs both", g.records, g.merges)
	}
	skip := -1
	for i, e := range tr.events {
		if e.Type == obs.MessageDropped && i > 0 && tr.events[i-1].Type != obs.MessageCreated {
			skip = i
			break
		}
	}
	if skip < 0 {
		t.Fatal("no recorded drop in the stream")
	}
	doctored := append(append([]obs.Event{}, tr.events[:skip]...), tr.events[skip+1:]...)
	if _, err := checkGossip(doctored, w.Hosts); err == nil {
		t.Fatalf("replay without the drop at event %d matched the live tables", skip)
	}
}

// TestPinnedWorldsAreBenchSuiteCases ties the pins to the committed BENCH_7
// report: at the pinned seed, taxi world 1 runs the table3 case's scenario,
// reproduces the case's recorded digest counters, and matches its pinned
// fingerprint.
func TestPinnedWorldsAreBenchSuiteCases(t *testing.T) {
	rep, err := bench.ReadFile(filepath.Join("..", "..", "BENCH_7.json"))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		workload, suiteCase string
		gen                 func() config.Scenario
	}{
		{"taxi", "table3", config.EPFL},
	} {
		wl, _ := workloadByName(c.workload)
		sc := wl.scenarios(pinnedSeed, 1)[0]
		if !reflect.DeepEqual(sc, c.gen()) {
			t.Errorf("%s world 1 is not the %s scenario", c.workload, c.suiteCase)
			continue
		}
		res, _, _, _, err := runWorld(sc)
		if err != nil {
			t.Fatal(err)
		}
		want := rep.Case(c.suiteCase).Sim
		got := bench.Sim{
			Runs: 1, Events: res.Perf.Events, PeakQueue: res.Perf.PeakQueue,
			Created: res.Created, Delivered: res.Delivered, PolicyDrops: res.PolicyDrops,
			Contacts: res.Contacts, Fingerprint: want.Fingerprint,
		}
		if got != want {
			t.Errorf("%s world 1 digest %+v, BENCH_7 %s %+v", c.workload, got, c.suiteCase, want)
		}
		if fp := fingerprint(res); fp != pinned[c.workload][0] {
			t.Errorf("%s world 1 fingerprint %s, pinned %s", c.workload, fp, pinned[c.workload][0])
		}
	}
}

func TestUsageErrorsPrintNoResult(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "taxi", "--trace", "2"},
		{"--workload", "taxi", "extra"},
		{"--workload", "taxi", "--spans", "spans.json"},
	} {
		var out, errs bytes.Buffer
		if code := run(args, &out, &errs); code == 0 || out.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q", args, code, out.String())
		}
	}
}
