package world_test

import (
	"math"
	"testing"

	"sdsrp/internal/bench"
	"sdsrp/internal/config"
	"sdsrp/internal/geo"
	"sdsrp/internal/world"
)

// fleetScenario is bench.Scan100kScenario scaled to n nodes at the same
// density: traffic-free RWP whose Build cost is the population alone.
func fleetScenario(n int) config.Scenario {
	sc := bench.Scan100kScenario()
	sc.Nodes = n
	side := 250_000 * math.Sqrt(float64(n)/100_000)
	sc.Area = geo.NewRect(side, side)
	return sc
}

// TestBuildAllocationsIndependentOfNodes pins world construction to a fixed
// number of allocations per world: every kind of per-node state (hosts with
// their buffers, rate estimators and drop tables, mobility models and their
// random streams) comes from one slab per world, so quadrupling the fleet
// adds no allocation. Allocating per node reads 17 per node here.
func TestBuildAllocationsIndependentOfNodes(t *testing.T) {
	for _, v := range []struct {
		name string
		edit func(*config.Scenario)
	}{
		{"default", func(*config.Scenario) {}},
		{"gap-estimator", func(sc *config.Scenario) { sc.GapLambdaEstimator = true }},
	} {
		allocs := func(n int) float64 {
			sc := fleetScenario(n)
			v.edit(&sc)
			return testing.AllocsPerRun(3, func() {
				if _, err := world.Build(sc); err != nil {
					t.Fatal(err)
				}
			})
		}
		small, large := allocs(1000), allocs(4000)
		t.Logf("%s: Build allocations: %.0f at 1 000 nodes, %.0f at 4 000", v.name, small, large)
		if math.Abs(large-small) > 8 {
			t.Errorf("%s: Build allocates %.0f objects at 1 000 nodes and %.0f at 4 000; want them within 8",
				v.name, small, large)
		}
	}
}

// BenchmarkBuild times world construction alone for a 10 000-node
// traffic-free fleet, the fleet-10k workload's population.
func BenchmarkBuild(b *testing.B) {
	sc := fleetScenario(10_000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := world.Build(sc); err != nil {
			b.Fatal(err)
		}
	}
}
