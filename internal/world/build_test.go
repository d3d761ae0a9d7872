package world_test

import (
	"math"
	"runtime"
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

// buildBytesPerNode bounds what world construction allocates per
// traffic-free RWP node: the host (200 B), walker (96 B), census estimator
// (24 B) and stream (24 B) slabs, the pointer and interface slices over
// them, the buffer capacities and the link layer's per-node arrays. The
// world-wide settings (routing.Env, mobility.Legs, core.Prior) are one
// value per world, so they cancel. It sits 2 % above the 418.8 B measured,
// so that one 16-byte field added to a per-node struct fails.
const buildBytesPerNode = 427

// TestBuildBytesPerNode pins world construction's bytes per node, which
// TestBuildAllocationsIndependentOfNodes leaves free: it reads
// runtime.MemStats.TotalAlloc across Build at 1 000 and 4 000 traffic-free
// nodes, so that the per-world costs cancel, and holds the difference per
// node to buildBytesPerNode.
func TestBuildBytesPerNode(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	allocated := func(n int) uint64 {
		sc := fleetScenario(n)
		least := uint64(math.MaxUint64)
		var before, after runtime.MemStats
		for range 4 {
			runtime.ReadMemStats(&before)
			if _, err := world.Build(sc); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			least = min(least, after.TotalAlloc-before.TotalAlloc)
		}
		return least
	}
	small, large := allocated(1000), allocated(4000)
	perNode := float64(large-small) / 3000
	t.Logf("Build allocates %d B at 1 000 nodes and %d B at 4 000: %.1f B per node", small, large, perNode)
	if perNode > buildBytesPerNode {
		t.Errorf("Build allocates %.1f B per node; want at most %d B", perNode, buildBytesPerNode)
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
