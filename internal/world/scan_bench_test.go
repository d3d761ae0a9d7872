package world_test

import (
	"math"
	"testing"

	"sdsrp/internal/bench"
	"sdsrp/internal/config"
	"sdsrp/internal/geo"
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

// BenchmarkDenseScanNaive runs densescan under the naive scan's neighbour
// list, the automatic choice below 400 nodes: one side of the crossover the
// automatic choice sits on (PERFORMANCE.md §7 and §19 tabulate it).
func BenchmarkDenseScanNaive(b *testing.B) { benchDenseScan(b, network.NaivePlanner) }

// BenchmarkDenseScanKinetic runs densescan under the kinetic per-node
// planner, the automatic choice from 400 nodes: the other side
// (BenchmarkDenseScan in the root package runs the automatic choice).
func BenchmarkDenseScanKinetic(b *testing.B) { benchDenseScan(b, network.KineticPlanner) }

// benchTaxiScan runs a traffic-free Table III world, 200 taxis played back
// from a synthesized trace (mobility.Path, which reports no legs), under
// planner p.
func benchTaxiScan(b *testing.B, p network.Planner) {
	sc := config.EPFL()
	sc.GenIntervalLo = 0 // traffic-free: scanner cost only
	benchScan(b, sc, p)
}

// BenchmarkTaxiScanNaive runs the taxis under the naive scan, the automatic
// choice at 200 nodes, whose neighbour list is rebuilt every 7 ticks at
// 14 m/s.
func BenchmarkTaxiScanNaive(b *testing.B) { benchTaxiScan(b, network.NaivePlanner) }

// BenchmarkTaxiScanKinetic runs the taxis under the kinetic planner, which
// parks nodes on the MaxSpeed bound alone here.
func BenchmarkTaxiScanKinetic(b *testing.B) { benchTaxiScan(b, network.KineticPlanner) }

// BenchmarkPlannerCrossover runs traffic-free Table II walkers under each
// planner the automatic choice picks between, at fleet sizes on both sides
// of its crossover (400 nodes): PERFORMANCE.md §7's rows at 6.5 nodes/km²
// over 3600 ticks, and the fleet-10k workload's world, bench.Scan100kScenario
// at a tenth of the nodes on a tenth of the area.
func BenchmarkPlannerCrossover(b *testing.B) {
	fleet := func(n int) config.Scenario {
		sc := config.RandomWaypoint()
		sc.Nodes = n
		side := 1000 * math.Sqrt(float64(n)/6.5)
		sc.Area = geo.NewRect(side, side)
		sc.Duration = 3600
		sc.GenIntervalLo = 0 // traffic-free: scanner cost only
		return sc
	}
	fleet10k := bench.Scan100kScenario()
	fleet10k.Nodes = 10_000
	fleet10k.Area = geo.NewRect(79_057, 79_057)
	for _, tc := range []struct {
		name string
		sc   config.Scenario
	}{
		{"n=100", fleet(100)}, {"n=200", fleet(200)}, {"n=400", fleet(400)},
		{"n=1000", fleet(1000)}, {"fleet-10k", fleet10k},
	} {
		b.Run(tc.name+"/naive", func(b *testing.B) { benchScan(b, tc.sc, network.NaivePlanner) })
		b.Run(tc.name+"/kinetic", func(b *testing.B) { benchScan(b, tc.sc, network.KineticPlanner) })
	}
}
