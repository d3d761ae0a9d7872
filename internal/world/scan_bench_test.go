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
// the denominator of the planners' speedup (BenchmarkDenseScan in the root
// package runs the automatic choice, the kinetic planner at 400 nodes).
func BenchmarkDenseScanNaive(b *testing.B) { benchDenseScan(b, network.NaivePlanner) }

// BenchmarkDenseScanLazy runs densescan under the lazy per-pair sweep, the
// automatic choice below 400 nodes: one side of the crossover the automatic
// choice sits on (PERFORMANCE.md §7 tabulates it).
func BenchmarkDenseScanLazy(b *testing.B) { benchDenseScan(b, network.LazyPlanner) }

// BenchmarkDenseScanKinetic runs densescan under the kinetic per-node
// planner, the automatic choice from 400 nodes: the other side.
func BenchmarkDenseScanKinetic(b *testing.B) { benchDenseScan(b, network.KineticPlanner) }
