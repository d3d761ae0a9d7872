package world

import (
	"testing"

	"sdsrp/internal/msg"
	"sdsrp/internal/obs"
	"sdsrp/internal/policy"
	"sdsrp/internal/rng"
	"sdsrp/internal/routing"
	"sdsrp/internal/stats"
)

// Test-registered policies. randomPolicyName scores every copy with a fresh
// draw from its stream. oracleProbeName is OracleUtility under a name the
// truth rule (policy.ReadsTruth) attaches the ledger to; it checks every
// truth read against the run's buffers.
const (
	randomPolicyName = "test-random"
	oracleProbeName  = "OracleUtility-probe"
)

func init() {
	for name, f := range map[string]policy.Factory{
		randomPolicyName: func(s *rng.Stream) policy.Policy { return randomPolicy{s} },
		oracleProbeName:  func(*rng.Stream) policy.Policy { return oracleProbe{} },
	} {
		if err := policy.Register(name, f); err != nil {
			panic(err)
		}
	}
}

type randomPolicy struct{ s *rng.Stream }

func (randomPolicy) Name() string                                 { return randomPolicyName }
func (p randomPolicy) SendScore(policy.View, *msg.Stored) float64 { return p.s.Float64() }
func (p randomPolicy) DropScore(policy.View, *msg.Stored) float64 { return p.s.Float64() }

type oracleProbe struct{ policy.OracleUtility }

func (oracleProbe) Name() string { return oracleProbeName }

func (p oracleProbe) SendScore(v policy.View, s *msg.Stored) float64 {
	probe.check(v, s)
	return p.OracleUtility.SendScore(v, s)
}

func (p oracleProbe) DropScore(v policy.View, s *msg.Stored) float64 {
	probe.check(v, s)
	return p.OracleUtility.DropScore(v, s)
}

// probe is the state oracleProbe checks against. Only
// TestOracleTruthMatchesBuffersAtEveryScore runs the probe policy, and it
// does not run in parallel.
var probe truthProbe

// truthProbe keeps the carrier set from the buffers: as a tracer, it
// samples every host's buffer at every event of the run.
type truthProbe struct {
	t        testing.TB
	hosts    []*routing.Host
	carriers map[msg.ID]map[int]bool
	// calls counts score calls; window those about a copy the asking
	// host's buffer does not hold (a newcomer it is about to store).
	calls, window int
}

func (p *truthProbe) Emit(obs.Event) { p.sample() }

func (p *truthProbe) sample() {
	for _, h := range p.hosts {
		for _, s := range h.Buffer().Items() {
			if p.carriers[s.M.ID] == nil {
				p.carriers[s.M.ID] = map[int]bool{}
			}
			p.carriers[s.M.ID][h.ID()] = true
		}
	}
}

// check compares the asking host's TrueLive with the hosts whose buffer
// holds the copy, and its TrueSeen with the non-source carriers so far,
// destinations that consumed the copy included.
func (p *truthProbe) check(v policy.View, s *msg.Stored) {
	p.sample()
	p.calls++
	id := s.M.ID
	var live, seen int
	for _, h := range p.hosts {
		if h.Buffer().Has(id) {
			live++
		}
		if h.ID() != s.M.Source && (p.carriers[id][h.ID()] || h.Received(id)) {
			seen++
		}
	}
	if !v.(*routing.Host).Buffer().Has(id) {
		p.window++
	}
	if got := v.TrueLive(s); got != float64(live) {
		p.t.Fatalf("t=%v node %d, msg %d: TrueLive %v, buffers hold %d", v.Now(), v.(*routing.Host).ID(), id, got, live)
	}
	if got := v.TrueSeen(s); got != float64(seen) {
		p.t.Fatalf("t=%v node %d, msg %d: TrueSeen %v, carriers %d", v.Now(), v.(*routing.Host).ID(), id, got, seen)
	}
}

// oracleSummaries are OracleUtility's results on diffBase seeds 1–3, taken
// when a separate ground-truth tracker still fed TrueSeen and TrueLive.
var oracleSummaries = []stats.Summary{
	{Created: 40, Delivered: 9, Forwards: 172, Started: 215, Aborted: 40, PolicyDrops: 99,
		DeliveryRatio: 0.225, AvgHops: 2.111111111111111, OverheadRatio: 18.11111111111111,
		AvgLatency: 400.07041822131924, MedianLatency: 346.71724978933844, P95Latency: 951.447041325634},
	{Created: 40, Delivered: 8, Forwards: 174, Started: 215, Aborted: 38, PolicyDrops: 102,
		DeliveryRatio: 0.2, AvgHops: 2, OverheadRatio: 20.75,
		AvgLatency: 514.678122865218, MedianLatency: 418.1781348245712, P95Latency: 932.1583491946144},
	{Created: 41, Delivered: 10, Forwards: 207, Started: 267, Aborted: 55, PolicyDrops: 132,
		DeliveryRatio: 0.24390243902439024, AvgHops: 2.3, OverheadRatio: 19.7,
		AvgLatency: 301.02034186122216, MedianLatency: 252.7983214834133, P95Latency: 759.9702196345778},
}

// TestOracleTruthMatchesBuffersAtEveryScore runs OracleUtility behind the
// probe: every truth read, including a receiver's reads about the newcomer
// it has not stored yet, must match the buffers at that moment.
func TestOracleTruthMatchesBuffersAtEveryScore(t *testing.T) {
	for i, seed := range []uint64{1, 2, 3} {
		sc := diffBase()
		sc.Seed = seed
		sc.PolicyName = oracleProbeName
		probe = truthProbe{t: t, carriers: map[msg.ID]map[int]bool{}}
		w, err := Build(sc, WithTracer(&probe))
		if err != nil {
			t.Fatal(err)
		}
		probe.hosts = w.Hosts
		res := mustRun(t, w)
		if probe.window == 0 || probe.calls == probe.window {
			t.Fatalf("seed %d: %d score calls, %d about unstored newcomers: both kinds must occur", seed, probe.calls, probe.window)
		}
		if res.Summary != oracleSummaries[i] {
			t.Errorf("seed %d: probe run diverges from OracleUtility:\n got %+v\nwant %+v", seed, res.Summary, oracleSummaries[i])
		}
	}
}

// TestOracleUtilitySummaryPinned pins OracleUtility on diffBase seeds 1–3.
func TestOracleUtilitySummaryPinned(t *testing.T) {
	for i, seed := range []uint64{1, 2, 3} {
		sc := diffBase()
		sc.Seed = seed
		sc.PolicyName = "OracleUtility"
		w, err := Build(sc)
		if err != nil {
			t.Fatal(err)
		}
		if res := mustRun(t, w); res.Summary != oracleSummaries[i] {
			t.Errorf("seed %d:\n got %+v\nwant %+v", seed, res.Summary, oracleSummaries[i])
		}
	}
}

// prophetSummaries are FIFO's results under the PRoPHET family on diffBase
// seeds 1–3, taken once predictability reads stopped aging the tables. They
// pin the predictability arithmetic, which no other test runs end to end.
var prophetSummaries = map[string][]stats.Summary{
	"prophet": {
		{Created: 40, Delivered: 6, Forwards: 88, Started: 109, Aborted: 18, PolicyDrops: 34,
			DeliveryRatio: 0.15, AvgHops: 2.3333333333333335, OverheadRatio: 13.666666666666666,
			AvgLatency: 472.3088944989304, MedianLatency: 268.23621647943685, P95Latency: 1060.5481614165576},
		{Created: 40, Delivered: 9, Forwards: 60, Started: 74, Aborted: 11, PolicyDrops: 8,
			DeliveryRatio: 0.225, AvgHops: 1.6666666666666667, OverheadRatio: 5.666666666666667,
			AvgLatency: 505.20162740949206, MedianLatency: 402.1781348245712, P95Latency: 872.2559245339567},
		{Created: 41, Delivered: 11, Forwards: 103, Started: 124, Aborted: 18, PolicyDrops: 36,
			DeliveryRatio: 0.2682926829268293, AvgHops: 2, OverheadRatio: 8.363636363636363,
			AvgLatency: 419.04963745203645, MedianLatency: 430.3329426321881, P95Latency: 824.264479062795},
	},
	"spray-and-wait-predict": {
		{Created: 40, Delivered: 11, Forwards: 146, Started: 181, Aborted: 32, PolicyDrops: 74,
			DeliveryRatio: 0.275, AvgHops: 2.272727272727273, OverheadRatio: 12.272727272727273,
			AvgLatency: 416.5666313201413, MedianLatency: 332.21053800910994, P95Latency: 761.9911438635085},
		{Created: 40, Delivered: 8, Forwards: 125, Started: 154, Aborted: 27, PolicyDrops: 59,
			DeliveryRatio: 0.2, AvgHops: 2.375, OverheadRatio: 14.625,
			AvgLatency: 485.52943532168626, MedianLatency: 330.6451238532603, P95Latency: 951.5668190648996},
		{Created: 41, Delivered: 11, Forwards: 162, Started: 207, Aborted: 42, PolicyDrops: 89,
			DeliveryRatio: 0.2682926829268293, AvgHops: 2.1818181818181817, OverheadRatio: 13.727272727272727,
			AvgLatency: 384.9219548871373, MedianLatency: 283.28521398036344, P95Latency: 850.9702196345778},
	},
}

// TestProphetFamilySummaryPinned pins FIFO under prophet and
// spray-and-wait-predict on diffBase seeds 1–3.
func TestProphetFamilySummaryPinned(t *testing.T) {
	for _, proto := range []string{"prophet", "spray-and-wait-predict"} {
		for i, seed := range []uint64{1, 2, 3} {
			sc := diffBase()
			sc.Seed = seed
			sc.PolicyName = "SprayAndWait"
			sc.ProtocolName = proto
			w, err := Build(sc)
			if err != nil {
				t.Fatal(err)
			}
			if res := mustRun(t, w); res.Summary != prophetSummaries[proto][i] {
				t.Errorf("%s seed %d:\n got %+v\nwant %+v", proto, seed, res.Summary, prophetSummaries[proto][i])
			}
		}
	}
}
