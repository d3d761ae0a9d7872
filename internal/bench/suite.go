package bench

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"sync"

	"sdsrp/internal/config"
	"sdsrp/internal/experiment"
	"sdsrp/internal/geo"
	"sdsrp/internal/report"
	"sdsrp/internal/world"
)

// SuiteVersion tags the suite definition embedded in a report. Bump it when
// existing cases change parameters or are removed, so a delta report can
// refuse to compare measurements of different workloads. Adding a case keeps
// the version: Compare reports baseline-absent cases as New without gating
// on them, so old reports stay comparable.
const SuiteVersion = "v2"

// BenchOptions is the shared reduced scale for sweep cases — identical to
// the root `go test -bench` targets (bench_test.go), so dtnbench and the
// testing.B benchmarks measure the same workloads and cannot drift apart.
// Workers is 1 because the harness measures simulation cost, not scheduling.
func BenchOptions() experiment.Options {
	return experiment.Options{
		Scale:   0.05, // 900 simulated seconds
		Nodes:   20,
		Workers: 1,
		Seeds:   []uint64{1},
	}
}

// SmokeScenario is the seconds-scale workload behind the "smoke" case, the
// golden-determinism fixture (testdata/golden_trace.jsonl), and `dtnbench
// -smoke`: a 16-node random-waypoint run small enough for CI yet busy
// enough (tight buffers, short TTL) to exercise eviction, expiry, and the
// full SDSRP priority path.
func SmokeScenario() config.Scenario {
	sc := config.RandomWaypoint()
	sc.Name = "bench-golden"
	sc.Nodes = 16
	sc.Duration = 2400
	sc.TTL = 900
	sc.Area.Max.X = 700
	sc.Area.Max.Y = 700
	sc.MessageSize = 100 * 1000
	sc.MessageSizeHi = 0
	sc.BufferBytes = 300 * 1000
	sc.PolicyName = "SDSRP"
	sc.Seed = 11
	return sc
}

// DenseScanScenario is the contact scan's showcase workload: a node count
// high enough that pair bookkeeping would dominate (400 nodes, ~80k pairs)
// spread over an area sparse enough that almost every pair is provably out
// of range almost all the time, so the neighbour list holds few pairs and
// its served ticks sample few nodes. Traffic is disabled so the measurement
// isolates contact detection.
func DenseScanScenario() config.Scenario {
	sc := config.RandomWaypoint()
	sc.Name = "bench-densescan"
	sc.Nodes = 400
	sc.Area = geo.NewRect(15000, 12000)
	sc.Duration = 3600
	sc.Range = 50
	sc.GenIntervalLo = 0 // traffic-free: scanner cost only
	return sc
}

// Scan100kPeakHeapBudget is the memory ceiling the scan100k case is gated
// against, both on fresh runs (TestScan100kScalesWithinBudget) and on the
// committed baseline (TestCommittedScan100kPeakHeapWithinBudget). On the
// neighbour list the sampled peak reads ~69 MB (dtnbench -cases scan100k,
// go1.24 on 2 vCPUs): the host slab (hosts with their buffers, drop tables
// and rate estimators, ~34 MB) and the mobility slab (models and their RNG
// substreams, ~17 MB) dominate. So 256 MB leaves ~3.9× headroom for
// allocator and GC variance without ever admitting a per-pair design
// (arrays of ~36 bytes per pair would want ~180 GB here).
const Scan100kPeakHeapBudget = 256 << 20

// Scan100kScenario is the contact scan's scale workload: 100 000 nodes — a
// fleet no per-pair scan state could hold — walking a 250 km square sparse
// enough that most nodes are on no listed pair, so the list's served ticks
// sample a fraction of the fleet. Traffic is disabled so the measurement
// isolates contact detection. As in every world, the 100 m range sets the
// fine cells and the list's 300 m radius its build cells. The case doubles as
// the suite's peak-memory gate (Perf.PeakHeapBytes): the scan's state is a
// few dozen bytes per node, so the whole run must fit a budget the
// per-pair design would blow past by three orders of magnitude.
// PERFORMANCE.md §7 and §20 document the cost model.
func Scan100kScenario() config.Scenario {
	sc := config.RandomWaypoint()
	sc.Name = "bench-scan100k"
	sc.Nodes = 100_000
	sc.Area = geo.NewRect(250_000, 250_000)
	sc.Duration = 300
	sc.GenIntervalLo = 0 // traffic-free: scanner cost only
	return sc
}

// Suite returns the fixed benchmark suite, in definition order. Names are
// stable identifiers: reports key on them, and -cases filters by them.
func Suite() []Case {
	return []Case{
		scenarioCase("smoke", "16-node RWP smoke run (seconds-scale, golden-trace scenario)", SmokeScenario),
		scenarioCase("table2", "full Table II baseline: 100-node RWP, 18000 s, SDSRP", config.RandomWaypoint),
		scenarioCase("table3", "full Table III: 200-taxi EPFL substitute, 18000 s, SDSRP", config.EPFL),
		scenarioCase("densescan", "400-node traffic-free RWP over 15×12 km: contact-scan cost in isolation", DenseScanScenario),
		scenarioCase("scan100k", "100k-node traffic-free RWP over 250×250 km: contact-scan scale (peak-memory gate)", Scan100kScenario),
		experimentCase("fig8copies", "Fig. 8 a-c sweep: metrics vs initial copies (reduced scale)"),
		experimentCase("fig8buffer", "Fig. 8 d-f sweep: metrics vs buffer size (reduced scale)"),
		experimentCase("fig8rate", "Fig. 8 g-i sweep: metrics vs generation rate (reduced scale)"),
		experimentCase("resilience-churn", "resilience sweep: metrics vs node crash/reboot churn (reduced scale)"),
	}
}

// scenarioCase wraps a single full-parameter scenario run.
func scenarioCase(name, desc string, gen func() config.Scenario) Case {
	return Case{Name: name, Desc: desc, Run: func() (Sim, error) {
		wld, err := world.Build(gen())
		if err != nil {
			return Sim{}, err
		}
		res, err := wld.Run()
		if err != nil {
			return Sim{}, err
		}
		var d digest
		d.add(res)
		h := fnv.New64a()
		hashResult(h, res)
		return d.sim(h), nil
	}}
}

// experimentCase wraps a registered experiment sweep at BenchOptions scale.
// Engine counters are accumulated commutatively over the OnResult hook, and
// the fingerprint hashes the rendered panels, so the digest is independent
// of result arrival order.
func experimentCase(name, desc string) Case {
	return Case{Name: name, Desc: desc, Run: func() (Sim, error) {
		spec, ok := experiment.ByName(name)
		if !ok {
			return Sim{}, fmt.Errorf("experiment %q not registered", name)
		}
		var (
			//lint:invariant guards the cross-run digest accumulator fed by sweep workers after each run completes; accumulation is commutative and happens outside every engine's dispatch loop
			mu sync.Mutex
			d  digest
		)
		o := BenchOptions()
		o.OnResult = func(r world.Result) {
			mu.Lock()
			d.add(r)
			mu.Unlock()
		}
		panels, err := spec.Run(o)
		if err != nil {
			return Sim{}, err
		}
		if len(panels) == 0 {
			return Sim{}, fmt.Errorf("experiment %q produced no panels", name)
		}
		h := fnv.New64a()
		hashPanels(h, panels)
		return d.sim(h), nil
	}}
}

// digest accumulates per-run engine counters into a Sim. All operations are
// commutative (sums and maxima), so the result does not depend on the order
// runs finish in.
type digest struct {
	runs        int
	events      uint64
	peakQueue   int
	created     int
	delivered   int
	policyDrops int
	contacts    int
}

func (d *digest) add(r world.Result) {
	d.runs++
	d.events += r.Perf.Events
	if r.Perf.PeakQueue > d.peakQueue {
		d.peakQueue = r.Perf.PeakQueue
	}
	d.created += r.Summary.Created
	d.delivered += r.Summary.Delivered
	d.policyDrops += r.Summary.PolicyDrops
	d.contacts += r.Contacts
}

func (d *digest) sim(h hash.Hash64) Sim {
	return Sim{
		Runs:        d.runs,
		Events:      d.events,
		PeakQueue:   d.peakQueue,
		Created:     d.created,
		Delivered:   d.delivered,
		PolicyDrops: d.policyDrops,
		Contacts:    d.contacts,
		Fingerprint: fmt.Sprintf("%016x", h.Sum64()),
	}
}

// hashU64 / hashF64 feed fixed-width big-endian words into the fingerprint.
// Floats hash by bit pattern: two runs agree on the fingerprint iff they
// agree on every bit of every metric.
func hashU64(h hash.Hash64, v uint64) {
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], v)
	h.Write(buf[:])
}

func hashF64(h hash.Hash64, v float64) { hashU64(h, math.Float64bits(v)) }

func hashStr(h hash.Hash64, s string) {
	hashU64(h, uint64(len(s)))
	h.Write([]byte(s))
}

// hashResult fingerprints one run's observable outcome: the full stats
// summary plus contact counts and durations.
func hashResult(h hash.Hash64, r world.Result) {
	s := r.Summary
	for _, v := range []int{
		s.Created, s.Delivered, s.Forwards, s.Started, s.Aborted, s.Refused,
		s.Lost, s.PolicyDrops, s.ExpiredDrops, s.AckPurges, s.Duplicates,
	} {
		hashU64(h, uint64(int64(v)))
	}
	for _, v := range []float64{
		s.DeliveryRatio, s.AvgHops, s.OverheadRatio,
		s.AvgLatency, s.MedianLatency, s.P95Latency,
	} {
		hashF64(h, v)
	}
	hashU64(h, uint64(int64(r.Contacts)))
	hashF64(h, r.MeanContactDuration)
}

// hashPanels fingerprints a sweep's rendered output: every panel, curve
// label, and metric value in presentation order.
func hashPanels(h hash.Hash64, panels []report.Panel) {
	for _, p := range panels {
		hashStr(h, p.ID)
		for _, x := range p.X {
			hashF64(h, x)
		}
		for _, c := range p.Curves {
			hashStr(h, c.Label)
			for _, y := range c.Y {
				hashF64(h, y)
			}
		}
	}
}
