package world_test

import (
	"testing"

	"sdsrp/internal/bench"
	"sdsrp/internal/config"
	"sdsrp/internal/network"
	"sdsrp/internal/world"
)

// benchDenseScan runs the bench suite's densescan workload under planner p.
// Every planner produces a byte-identical event stream (the differential
// tests in scan_diff_test.go), so the deltas are pure scanning cost.
func benchDenseScan(b *testing.B, p network.Planner) {
	benchScan(b, bench.DenseScanScenario(), p)
}

// benchScan builds and runs sc under planner p once per iteration.
func benchScan(b *testing.B, sc config.Scenario, p network.Planner) {
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

// benchTaxiScan runs a traffic-free Table III world, 200 taxis played back
// from a synthesized trace (mobility.Path, which reports no legs), under
// planner p.
func benchTaxiScan(b *testing.B, p network.Planner) {
	sc := config.EPFL()
	sc.GenIntervalLo = 0 // traffic-free: scanner cost only
	benchScan(b, sc, p)
}

// BenchmarkTaxiScanNaive runs the taxis under the naive scan, whose
// neighbour list is rebuilt every 7 ticks at 14 m/s.
func BenchmarkTaxiScanNaive(b *testing.B) { benchTaxiScan(b, network.NaivePlanner) }

// BenchmarkTaxiScanLazy runs the taxis under the lazy sweep, the automatic
// choice at 200 nodes, which retires to the naive scan after a few load
// windows.
func BenchmarkTaxiScanLazy(b *testing.B) { benchTaxiScan(b, network.LazyPlanner) }

// BenchmarkTaxiScanKinetic runs the taxis under the kinetic planner, which
// parks nodes on the MaxSpeed bound alone here.
func BenchmarkTaxiScanKinetic(b *testing.B) { benchTaxiScan(b, network.KineticPlanner) }
