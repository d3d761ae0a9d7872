package main

import (
	"bytes"
	"fmt"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"sdsrp"
	"sdsrp/internal/obs"
)

// testScenario is a fast deterministic run exercising sprays, deliveries,
// policy drops, and expiries.
func testScenario(seed uint64) sdsrp.Scenario {
	sc := sdsrp.RandomWaypointScenario()
	sc.Nodes = 12
	sc.Duration = 1800
	sc.TTL = 600
	sc.Area.Max.X = 600
	sc.Area.Max.Y = 600
	sc.MessageSize = 100 * 1000
	sc.MessageSizeHi = 0
	sc.BufferBytes = 300 * 1000
	sc.Seed = seed
	return sc
}

// writeTrace runs sc with the JSONL tracer (and optional snapshot sampler)
// into path, returning the run's Result.
func writeTrace(t *testing.T, sc sdsrp.Scenario, path string, snapInterval float64) sdsrp.Result {
	t.Helper()
	w, err := sdsrp.CreateEventLog(path)
	if err != nil {
		t.Fatal(err)
	}
	jsonl := sdsrp.NewJSONLTracer(w)
	world, err := sdsrp.Build(sc, sdsrp.WithTracer(jsonl))
	if err != nil {
		t.Fatal(err)
	}
	if snapInterval > 0 {
		if err := world.EnableSnapshots(snapInterval); err != nil {
			t.Fatal(err)
		}
	}
	res, err := world.Run()
	if err != nil {
		t.Fatal(err)
	}
	if err := jsonl.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return res
}

// TestDiffIdenticalAcrossScanModes is the acceptance gate: naive and lazy
// contact scanning must produce byte-identical traces, and diff must say so —
// with one side gzipped to cover the transparent decompression path.
func TestDiffIdenticalAcrossScanModes(t *testing.T) {
	dir := t.TempDir()
	naive, lazy := filepath.Join(dir, "naive.jsonl"), filepath.Join(dir, "lazy.jsonl.gz")
	scN := testScenario(3)
	scN.ScanMode = "naive"
	scL := testScenario(3)
	scL.ScanMode = "lazy"
	writeTrace(t, scN, naive, 0)
	writeTrace(t, scL, lazy, 0)

	var out bytes.Buffer
	identical, err := runDiff([]string{naive, lazy}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !identical {
		t.Fatalf("scan modes diverge:\n%s", out.String())
	}
	if !strings.HasPrefix(out.String(), "identical: ") {
		t.Fatalf("diff output = %q", out.String())
	}
	var n int
	if _, err := fmt.Sscanf(out.String(), "identical: %d events", &n); err != nil || n == 0 {
		t.Fatalf("diff reported %q, want a positive event count", out.String())
	}
}

// TestDiffLocalizesDivergence pins the failure mode: different seeds must
// diverge, and the report must carry file:line context.
func TestDiffLocalizesDivergence(t *testing.T) {
	dir := t.TempDir()
	a, b := filepath.Join(dir, "a.jsonl"), filepath.Join(dir, "b.jsonl")
	writeTrace(t, testScenario(3), a, 0)
	writeTrace(t, testScenario(4), b, 0)

	var out bytes.Buffer
	identical, err := runDiff([]string{"-context", "2", a, b}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if identical {
		t.Fatal("different seeds reported identical")
	}
	got := out.String()
	if !strings.Contains(got, "traces diverge at event ") {
		t.Fatalf("missing divergence header:\n%s", got)
	}
	// Both sides of the divergence must be cited in file:line style.
	for _, path := range []string{a, b} {
		if !strings.Contains(got, path+":") {
			t.Errorf("report does not cite %s:<line>:\n%s", path, got)
		}
	}
}

// TestDiffEOFDivergence: a truncated trace diverges at end-of-file, not with
// a spurious content mismatch.
func TestDiffEOFDivergence(t *testing.T) {
	dir := t.TempDir()
	full, cut := filepath.Join(dir, "full.jsonl"), filepath.Join(dir, "cut.jsonl")
	writeTrace(t, testScenario(3), full, 0)
	data, err := readFileLines(full)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) < 10 {
		t.Fatalf("trace too short: %d lines", len(data))
	}
	if err := writeFileLines(cut, data[:len(data)-3]); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	identical, err := runDiff([]string{full, cut}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if identical {
		t.Fatal("truncated trace reported identical")
	}
	if !strings.Contains(out.String(), "<end of trace>") {
		t.Fatalf("EOF divergence not flagged:\n%s", out.String())
	}
}

// TestStatsCheckAgainstSim is the trace-smoke invariant in miniature: fold
// the trace, render dtnsim's stat lines from the run's own Result, and the
// -check comparison must pass. Warmup-free, so every counter and float must
// agree bit-for-bit.
func TestStatsCheckAgainstSim(t *testing.T) {
	dir := t.TempDir()
	trace := filepath.Join(dir, "run.jsonl.gz")
	res := writeTrace(t, testScenario(3), trace, 0)
	if res.Created == 0 || res.Delivered == 0 {
		t.Fatalf("degenerate run: created=%d delivered=%d", res.Created, res.Delivered)
	}
	simOut := filepath.Join(dir, "sim.txt")
	if err := writeFileLines(simOut, renderSimStats(res)); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := runStats([]string{"-check", simOut, trace}, &out); err != nil {
		t.Fatalf("stats -check failed: %v\noutput:\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "check           ok") {
		t.Fatalf("missing check-ok line:\n%s", out.String())
	}
	// And a deliberately corrupted sim capture must be rejected.
	bad := filepath.Join(dir, "bad.txt")
	lines := renderSimStats(res)
	lines[1] = "created         99999"
	if err := writeFileLines(bad, lines); err != nil {
		t.Fatal(err)
	}
	if err := runStats([]string{"-check", bad, trace}, &bytes.Buffer{}); err == nil {
		t.Fatal("corrupted sim stats passed the check")
	}
}

// renderSimStats formats a Result exactly as dtnsim's summary printf block
// does.
func renderSimStats(res sdsrp.Result) []string {
	lines := []string{
		fmt.Sprintf("contacts        %d", res.Contacts),
		fmt.Sprintf("created         %d", res.Created),
		fmt.Sprintf("delivered       %d (ratio %.4f)", res.Delivered, res.DeliveryRatio),
		fmt.Sprintf("avg hopcounts   %.3f", res.AvgHops),
		fmt.Sprintf("overhead ratio  %.3f", res.OverheadRatio),
		fmt.Sprintf("latency         avg=%.1fs median=%.1fs p95=%.1fs",
			res.AvgLatency, res.MedianLatency, res.P95Latency),
		fmt.Sprintf("transfers       started=%d completed=%d aborted=%d refused=%d",
			res.Started, res.Forwards, res.Aborted, res.Refused),
	}
	if res.Lost > 0 {
		lines = append(lines, fmt.Sprintf("faults          transfers lost=%d", res.Lost))
	}
	lines = append(lines, fmt.Sprintf("drops           policy=%d expired=%d acked=%d",
		res.PolicyDrops, res.ExpiredDrops, res.AckPurges))
	return lines
}

// TestSeriesCSVShape checks the snapshot CSV: header, row cadence, per-node
// widening, and the no-snapshots error.
func TestSeriesCSVShape(t *testing.T) {
	dir := t.TempDir()
	trace := filepath.Join(dir, "snap.jsonl")
	sc := testScenario(3)
	writeTrace(t, sc, trace, 300)

	var out bytes.Buffer
	if err := runSeries([]string{trace}, &out); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if lines[0] != "t,live_msgs,live_copies,contacts,queue,used_total,used_max" {
		t.Fatalf("header = %q", lines[0])
	}
	wantRows := int(sc.Duration / 300)
	if len(lines)-1 != wantRows {
		t.Fatalf("got %d rows, want %d", len(lines)-1, wantRows)
	}
	for _, l := range lines[1:] {
		if n := strings.Count(l, ","); n != 6 {
			t.Fatalf("row %q has %d commas, want 6", l, n)
		}
	}

	var per bytes.Buffer
	if err := runSeries([]string{"-per-node", trace}, &per); err != nil {
		t.Fatal(err)
	}
	perHeader := strings.SplitN(per.String(), "\n", 2)[0]
	wantCols := 7 + sc.Nodes
	if got := len(strings.Split(perHeader, ",")); got != wantCols {
		t.Fatalf("per-node header has %d columns, want %d: %q", got, wantCols, perHeader)
	}
	if !strings.Contains(perHeader, ",used_0,") || !strings.HasSuffix(perHeader, "used_"+strconv.Itoa(sc.Nodes-1)) {
		t.Fatalf("per-node header = %q", perHeader)
	}

	// A snapshot-less trace is an explicit error, not empty CSV.
	bare := filepath.Join(dir, "bare.jsonl")
	writeTrace(t, testScenario(3), bare, 0)
	if err := runSeries([]string{bare}, &bytes.Buffer{}); err == nil {
		t.Fatal("snapshot-less trace produced CSV silently")
	}
}

// TestPathsInvariants folds a real trace and checks every reconstructed
// record satisfies the provenance algebra.
func TestPathsInvariants(t *testing.T) {
	dir := t.TempDir()
	trace := filepath.Join(dir, "run.jsonl")
	res := writeTrace(t, testScenario(3), trace, 0)
	ledger, _, err := foldFile(trace)
	if err != nil {
		t.Fatal(err)
	}
	recs := ledger.Records()
	if len(recs) != res.Created {
		t.Fatalf("ledger has %d records, run created %d", len(recs), res.Created)
	}
	delivered := 0
	for _, r := range recs {
		switch r.Fate {
		case obs.FateDelivered:
			delivered++
			if len(r.Path) < 2 {
				t.Fatalf("msg %d: delivered with path %v", r.ID, r.Path)
			}
			if r.Path[0] != r.Source || r.Path[len(r.Path)-1] != r.Dest {
				t.Fatalf("msg %d: path %v does not run %d→%d", r.ID, r.Path, r.Source, r.Dest)
			}
			if len(r.Path)-1 != r.Hops {
				t.Fatalf("msg %d: path %v inconsistent with hops %d", r.ID, r.Path, r.Hops)
			}
			if r.Latency != r.DeliveredAt-r.Created {
				t.Fatalf("msg %d: latency %v != %v - %v", r.ID, r.Latency, r.DeliveredAt, r.Created)
			}
		case obs.FateStranded:
			if r.LiveCopies == 0 {
				t.Fatalf("msg %d: stranded with zero live copies", r.ID)
			}
		case obs.FateDropped, obs.FateExpired:
			if r.LiveCopies != 0 {
				t.Fatalf("msg %d: %s with %d live copies", r.ID, r.Fate, r.LiveCopies)
			}
		default:
			t.Fatalf("msg %d: unknown fate %q", r.ID, r.Fate)
		}
	}
	if delivered != res.Delivered {
		t.Fatalf("ledger fates count %d deliveries, run had %d", delivered, res.Delivered)
	}

	// The text renderer covers every record on one line each.
	var out bytes.Buffer
	if err := runPaths([]string{trace}, &out); err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(out.String(), "\n"); got != len(recs) {
		t.Fatalf("paths printed %d lines, want %d", got, len(recs))
	}
	// And -msg restricts to a single record.
	var one bytes.Buffer
	if err := runPaths([]string{"-msg", "1", trace}, &one); err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(one.String(), "\n"); got != 1 {
		t.Fatalf("paths -msg 1 printed %d lines, want 1", got)
	}
	if !strings.HasPrefix(one.String(), "msg 1 ") {
		t.Fatalf("paths -msg 1 = %q", one.String())
	}
}

func readFileLines(path string) ([]string, error) {
	r, err := obs.OpenLog(path)
	if err != nil {
		return nil, err
	}
	defer r.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(r); err != nil {
		return nil, err
	}
	return strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n"), nil
}

func writeFileLines(path string, lines []string) error {
	w, err := obs.CreateLog(path)
	if err != nil {
		return err
	}
	for _, l := range lines {
		if _, err := fmt.Fprintln(w, l); err != nil {
			w.Close()
			return err
		}
	}
	return w.Close()
}
