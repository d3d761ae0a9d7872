package main

import (
	"bytes"
	"encoding/csv"
	"fmt"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"sdsrp"
	"sdsrp/internal/network"
	"sdsrp/internal/obs"
	"sdsrp/internal/world"
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
// into path, returning the run's Result. opts add to the tracer.
func writeTrace(t *testing.T, sc sdsrp.Scenario, path string, snapInterval float64, opts ...sdsrp.BuildOption) sdsrp.Result {
	t.Helper()
	w, err := sdsrp.CreateEventLog(path)
	if err != nil {
		t.Fatal(err)
	}
	jsonl := sdsrp.NewJSONLTracer(w)
	wld, err := sdsrp.Build(sc, append([]sdsrp.BuildOption{sdsrp.WithTracer(jsonl)}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	if snapInterval > 0 {
		if err := wld.EnableSnapshots(snapInterval); err != nil {
			t.Fatal(err)
		}
	}
	res, err := wld.Run()
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

// TestDiffIdenticalAcrossPlanReplay is the cross-path acceptance gate: a
// scanning run and a run that replays the first one's recorded contact
// plan reach the same link transitions by different paths, so their traces
// must be byte-identical and diff must say so — with one side gzipped to
// cover the transparent decompression path.
func TestDiffIdenticalAcrossPlanReplay(t *testing.T) {
	dir := t.TempDir()
	scanned, replayed := filepath.Join(dir, "scan.jsonl"), filepath.Join(dir, "replay.jsonl.gz")
	var plan network.ContactPlan
	writeTrace(t, testScenario(3), scanned, 0, world.RecordContactPlan(&plan))
	if res := writeTrace(t, testScenario(3), replayed, 0, world.ReplayContactPlan(&plan)); !res.Perf.Replayed {
		t.Fatal("the second run scanned instead of replaying the plan")
	}

	var out bytes.Buffer
	identical, err := runDiff([]string{scanned, replayed}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !identical {
		t.Fatalf("scan and plan replay diverge:\n%s", out.String())
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
// agree bit-for-bit, ACK purges included.
func TestStatsCheckAgainstSim(t *testing.T) {
	dir := t.TempDir()
	acked := testScenario(3)
	acked.UseAcks = true
	ackRes := writeTrace(t, acked, filepath.Join(dir, "acks.jsonl"), 0)
	if ackRes.AckPurges == 0 {
		t.Fatal("ACK run purged nothing")
	}
	if err := writeFileLines(filepath.Join(dir, "acks.txt"), renderSimStats(ackRes)); err != nil {
		t.Fatal(err)
	}
	var ackOut bytes.Buffer
	if err := runStats([]string{"-check", filepath.Join(dir, "acks.txt"), filepath.Join(dir, "acks.jsonl")}, &ackOut); err != nil {
		t.Fatalf("stats -check on the ACK run failed: %v\noutput:\n%s", err, ackOut.String())
	}

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
	if lines[0] != "t,live_msgs,live_copies,contacts,queue,used_total,used_max,"+
		"created,delivered,delivery_ratio,forwards,policy_drops,fill" {
		t.Fatalf("header = %q", lines[0])
	}
	wantRows := int(sc.Duration / 300)
	if len(lines)-1 != wantRows {
		t.Fatalf("got %d rows, want %d", len(lines)-1, wantRows)
	}
	for _, l := range lines[1:] {
		if n := strings.Count(l, ","); n != 12 {
			t.Fatalf("row %q has %d commas, want 12", l, n)
		}
	}

	var per bytes.Buffer
	if err := runSeries([]string{"-per-node", trace}, &per); err != nil {
		t.Fatal(err)
	}
	perHeader := strings.SplitN(per.String(), "\n", 2)[0]
	wantCols := 13 + sc.Nodes
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

// collectorProbe samples, at every snapshot a world emits, the live
// collector's counters and the mean fill of the buffers that have a byte
// budget.
type collectorProbe struct {
	w    *sdsrp.World
	rows [][]string
}

func (p *collectorProbe) Emit(ev obs.Event) {
	if ev.Type != obs.Snapshot {
		return
	}
	s := p.w.Collector.Summarize()
	var fill float64
	n := 0
	for _, h := range p.w.Hosts {
		if c := h.Buffer().Capacity(); c > 0 {
			fill += float64(h.Buffer().Used()) / float64(c)
			n++
		}
	}
	if n > 0 {
		fill /= float64(n)
	}
	p.rows = append(p.rows, []string{strconv.Itoa(s.Created), strconv.Itoa(s.Delivered),
		strconv.FormatFloat(s.DeliveryRatio, 'g', -1, 64), strconv.Itoa(s.Forwards),
		strconv.Itoa(s.PolicyDrops), strconv.FormatFloat(fill, 'g', -1, 64)})
}

// TestSeriesMatchesCollector checks the series against the live run: in
// warmup-free runs, with and without ACK purges, every row's counter
// columns equal the collector's at that snapshot, and its fill equals the
// mean used/capacity over the buffers with a byte budget.
func TestSeriesMatchesCollector(t *testing.T) {
	for _, acks := range []bool{false, true} {
		sc := testScenario(3)
		sc.UseAcks = acks
		path := filepath.Join(t.TempDir(), "run.jsonl")
		f, err := sdsrp.CreateEventLog(path)
		if err != nil {
			t.Fatal(err)
		}
		jsonl := sdsrp.NewJSONLTracer(f)
		probe := &collectorProbe{}
		w, err := sdsrp.Build(sc, sdsrp.WithTracer(sdsrp.MultiTracer(jsonl, probe)))
		if err != nil {
			t.Fatal(err)
		}
		probe.w = w
		if err := w.EnableSnapshots(120); err != nil {
			t.Fatal(err)
		}
		res, err := w.Run()
		if err != nil {
			t.Fatal(err)
		}
		if err := jsonl.Flush(); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		if res.Delivered == 0 || res.PolicyDrops == 0 || acks && res.AckPurges == 0 {
			t.Fatalf("acks=%v: degenerate run %+v", acks, res.Summary)
		}

		var out bytes.Buffer
		if err := runSeries([]string{path}, &out); err != nil {
			t.Fatal(err)
		}
		rows, err := csv.NewReader(&out).ReadAll()
		if err != nil {
			t.Fatal(err)
		}
		if len(rows)-1 != len(probe.rows) || len(probe.rows) != int(sc.Duration/120) {
			t.Fatalf("acks=%v: %d series rows, %d snapshots probed", acks, len(rows)-1, len(probe.rows))
		}
		for i, want := range probe.rows {
			if got := rows[i+1][7:]; !reflect.DeepEqual(got, want) {
				t.Fatalf("acks=%v: row %d %v, collector and buffers %v", acks, i, got, want)
			}
		}
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
		case obs.FateDropped, obs.FateExpired, obs.FateWiped:
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
