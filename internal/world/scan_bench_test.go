package world_test

import (
	"math"
	"testing"

	"sdsrp/internal/bench"
	"sdsrp/internal/config"
	"sdsrp/internal/geo"
	"sdsrp/internal/world"
)

// benchScan builds and runs sc once per iteration, Build included.
func benchScan(b *testing.B, sc config.Scenario) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		w, err := world.Build(sc)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := w.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTaxiScan runs a traffic-free Table III world, 200 taxis played
// back from a synthesized trace (mobility.Path), whose neighbour list is
// rebuilt every 7 ticks at 14 m/s.
func BenchmarkTaxiScan(b *testing.B) {
	sc := config.EPFL()
	sc.GenIntervalLo = 0 // traffic-free: scanner cost only
	benchScan(b, sc)
}

// BenchmarkScanFleetSizes runs traffic-free Table II walkers at the fleet
// sizes PERFORMANCE.md tabulates the scan at: §7's rows at 6.5 nodes/km²
// over 3600 ticks, the bench suite's densescan world, and the fleet-10k
// workload's world, bench.Scan100kScenario at a tenth of the nodes on a
// tenth of the area.
func BenchmarkScanFleetSizes(b *testing.B) {
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
		{"n=1000", fleet(1000)}, {"densescan", bench.DenseScanScenario()},
		{"fleet-10k", fleet10k},
	} {
		b.Run(tc.name, func(b *testing.B) { benchScan(b, tc.sc) })
	}
}
