package bench

import (
	"fmt"
	"path/filepath"
	"sort"
	"testing"

	"sdsrp/internal/world"
)

// TestScan100kKineticScalesWithinBudget is the live half of the large-fleet
// gate: the scan100k case must run under the kinetic planner without any
// planner fallback, actually park nodes (the whole point at this scale),
// and keep its sampled peak heap under Scan100kPeakHeapBudget — the
// representability claim the kinetic scanner was built for.
func TestScan100kKineticScalesWithinBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("scan100k is seconds-scale; skipped in -short")
	}
	w, err := world.Build(Scan100kScenario())
	if err != nil {
		t.Fatal(err)
	}
	res, err := w.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Perf.ScanFallback != "" {
		t.Fatalf("scan100k fell back: %q", res.Perf.ScanFallback)
	}
	if res.Perf.PairsSkipped == 0 {
		t.Fatal("kinetic planner parked nothing at 100k nodes")
	}
	var c Case
	for _, sc := range Suite() {
		if sc.Name == "scan100k" {
			c = sc
		}
	}
	_, perf, err := Measure(c, 2)
	if err != nil {
		t.Fatal(err)
	}
	if perf.PeakHeapBytes == 0 {
		t.Fatal("peak-heap sampler recorded nothing")
	}
	if perf.PeakHeapBytes > Scan100kPeakHeapBudget {
		t.Fatalf("peak heap %d B exceeds the %d B budget", perf.PeakHeapBytes, Scan100kPeakHeapBudget)
	}
}

// TestCommittedScan100kPeakHeapWithinBudget gates the committed baseline:
// the newest BENCH_<n>.json at the repo root must record a scan100k peak
// heap under budget, so a regression cannot be committed as the next
// baseline either. Baselines predating the case are skipped.
func TestCommittedScan100kPeakHeapWithinBudget(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("..", "..", "BENCH_*.json"))
	if err != nil || len(paths) == 0 {
		t.Skipf("no committed baselines found: %v", err)
	}
	sort.Strings(paths)
	newest := ""
	best := -1
	for _, p := range paths {
		var n int
		if _, err := fmt.Sscanf(filepath.Base(p), "BENCH_%d.json", &n); err == nil && n > best {
			best, newest = n, p
		}
	}
	if newest == "" {
		t.Skip("no numbered baseline")
	}
	rep, err := ReadFile(newest)
	if err != nil {
		t.Fatalf("read %s: %v", newest, err)
	}
	c := rep.Case("scan100k")
	if c == nil {
		t.Skipf("%s predates the scan100k case", newest)
	}
	if c.Perf.PeakHeapBytes == 0 {
		t.Fatalf("%s: scan100k has no recorded peak heap", newest)
	}
	if c.Perf.PeakHeapBytes > Scan100kPeakHeapBudget {
		t.Fatalf("%s: scan100k peak heap %d B exceeds the %d B budget",
			newest, c.Perf.PeakHeapBytes, Scan100kPeakHeapBudget)
	}
}
