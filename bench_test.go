// Benchmarks: one testing.B target per paper artifact. Targets that overlap
// the dtnbench regression suite (internal/bench) run the suite's own case
// definitions, so `go test -bench` and `dtnbench` measure identical work;
// the remaining figure benchmarks use the suite's shared reduced-scale
// options. cmd/experiments at default options reproduces the full-scale
// numbers recorded in EXPERIMENTS.md, and PERFORMANCE.md documents how these
// numbers relate to the BENCH_<n>.json reports.
package sdsrp_test

import (
	"path/filepath"
	"testing"

	"sdsrp"
	"sdsrp/internal/bench"
)

// benchSuiteCase runs one internal/bench suite case under testing.B. The
// case's Run closure is exactly what dtnbench measures, so ns/op and
// allocs/op here track the committed BENCH_<n>.json numbers.
func benchSuiteCase(b *testing.B, name string) {
	b.Helper()
	var found *bench.Case
	for _, c := range bench.Suite() {
		if c.Name == name {
			found = &c
			break
		}
	}
	if found == nil {
		b.Fatalf("suite case %q not found", name)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := found.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// benchExperiment measures a sweep not covered by the regression suite,
// using the suite's shared reduced-scale options for comparability.
func benchExperiment(b *testing.B, name string) {
	b.Helper()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		panels, err := sdsrp.RunExperiment(name, bench.BenchOptions())
		if err != nil {
			b.Fatal(err)
		}
		if len(panels) == 0 {
			b.Fatal("no panels")
		}
	}
}

// BenchmarkSmoke measures the suite's golden smoke scenario (the same run
// pinned byte-for-byte by internal/bench's golden-trace test).
func BenchmarkSmoke(b *testing.B) { benchSuiteCase(b, "smoke") }

// BenchmarkTable2Scenario measures one full-parameter Table II run
// (the paper's baseline configuration, SDSRP policy).
func BenchmarkTable2Scenario(b *testing.B) { benchSuiteCase(b, "table2") }

// BenchmarkTable3Scenario measures one full-parameter Table III run
// (200-taxi EPFL substitute, SDSRP policy).
func BenchmarkTable3Scenario(b *testing.B) { benchSuiteCase(b, "table3") }

// BenchmarkDenseScan measures the suite's contact-detection showcase: 400
// traffic-free nodes spread over 15×12 km, where scanning is the whole cost
// and the neighbour list holds few pairs. internal/world's
// BenchmarkScanFleetSizes runs the same workload beside other fleet sizes.
func BenchmarkDenseScan(b *testing.B) { benchSuiteCase(b, "densescan") }

// BenchmarkScan100k measures the suite's large-fleet case: 100k nodes, whose
// scan samples only the nodes on its neighbour list between rebuilds.
func BenchmarkScan100k(b *testing.B) { benchSuiteCase(b, "scan100k") }

// Fig. 3: intermeeting-time distributions (both mobility scenarios).
func BenchmarkFig3Intermeeting(b *testing.B) { benchExperiment(b, "fig3") }

// Fig. 4: the priority curve (pure math; no simulation).
func BenchmarkFig4PriorityCurve(b *testing.B) { benchExperiment(b, "fig4") }

// Fig. 8 (a)–(c): RWP metrics vs initial copies.
func BenchmarkFig8Copies(b *testing.B) { benchSuiteCase(b, "fig8copies") }

// Fig. 8 (d)–(f): RWP metrics vs buffer size.
func BenchmarkFig8Buffer(b *testing.B) { benchSuiteCase(b, "fig8buffer") }

// Fig. 8 (g)–(i): RWP metrics vs message generation rate.
func BenchmarkFig8Rate(b *testing.B) { benchSuiteCase(b, "fig8rate") }

// Fig. 9 (a)–(c): EPFL metrics vs initial copies.
func BenchmarkFig9Copies(b *testing.B) { benchExperiment(b, "fig9copies") }

// Fig. 9 (d)–(f): EPFL metrics vs buffer size.
func BenchmarkFig9Buffer(b *testing.B) { benchExperiment(b, "fig9buffer") }

// Fig. 9 (g)–(i): EPFL metrics vs message generation rate.
func BenchmarkFig9Rate(b *testing.B) { benchExperiment(b, "fig9rate") }

// Resilience: the suite's churn sweep from the fault-injection subsystem.
func BenchmarkResilienceChurn(b *testing.B) { benchSuiteCase(b, "resilience-churn") }

// DESIGN.md §8 ablations.
func BenchmarkAblationRate(b *testing.B)     { benchExperiment(b, "ablation-rate") }
func BenchmarkAblationDropList(b *testing.B) { benchExperiment(b, "ablation-droplist") }
func BenchmarkAblationTaylor(b *testing.B)   { benchExperiment(b, "ablation-taylor") }
func BenchmarkAblationOracle(b *testing.B)   { benchExperiment(b, "ablation-oracle") }

// BenchmarkReportWrite measures serializing a BENCH_<n>.json report. Output
// goes to b.TempDir() so benchmarking never dirties the working tree.
func BenchmarkReportWrite(b *testing.B) {
	rep := &bench.Report{
		Schema:    bench.SchemaVersion,
		Suite:     bench.SuiteVersion,
		GoVersion: "go-bench",
	}
	for _, c := range bench.Suite() {
		rep.Cases = append(rep.Cases, bench.CaseResult{
			Name: c.Name,
			Sim:  bench.Sim{Runs: 1, Events: 1000, Fingerprint: "0000000000000000"},
			Perf: bench.Perf{Iters: 2, NsPerOp: 1, AllocsPerOp: 1, BytesPerOp: 1, EventsPerSec: 1},
		})
	}
	path := filepath.Join(b.TempDir(), "BENCH_bench.json")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := rep.WriteFile(path); err != nil {
			b.Fatal(err)
		}
	}
}
