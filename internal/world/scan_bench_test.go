package world_test

import (
	"testing"

	"sdsrp/internal/bench"
	"sdsrp/internal/network"
	"sdsrp/internal/world"
)

// benchDenseScan runs the bench suite's densescan workload under planner p.
// Every planner produces a byte-identical event stream (the differential
// tests in scan_diff_test.go), so the deltas are pure scanning cost.
func benchDenseScan(b *testing.B, p network.Planner) {
	sc := bench.DenseScanScenario()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		w, err := world.Build(sc, world.WithPlanner(p))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := w.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDenseScanNaive runs densescan under the naive per-tick scanner:
// the denominator of the lazy sweep's speedup (BenchmarkDenseScan in the
// root package runs the automatic choice, the lazy sweep at 400 nodes).
func BenchmarkDenseScanNaive(b *testing.B) { benchDenseScan(b, network.NaivePlanner) }

// BenchmarkDenseScanKinetic runs densescan under the kinetic per-node
// planner, measuring the per-pair against per-node bookkeeping at 400 nodes
// (PERFORMANCE.md §7 tabulates the crossover).
func BenchmarkDenseScanKinetic(b *testing.B) { benchDenseScan(b, network.KineticPlanner) }
