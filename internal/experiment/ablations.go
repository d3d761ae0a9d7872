package experiment

import (
	"sdsrp/internal/config"
	"sdsrp/internal/report"
)

// ablationSweep compares scenario variants (rather than the paper's four
// policies) across the buffer sweep.
func ablationSweep(id, title string, base config.Scenario, curves []curve, o Options) ([]report.Panel, error) {
	return runSweep(base, sweep{id: id, curves: curves, axis: bufferAxis(),
		panel: letteredPanels(id, title)}, o)
}

// AblationRate compares SDSRP with the distributed λ estimator against an
// oracle fixed rate (DESIGN.md §8): how much does online estimation cost?
func AblationRate(o Options) ([]report.Panel, error) {
	base := config.RandomWaypoint()
	base.PolicyName = "SDSRP"
	// The oracle mean comes from a traffic-free measurement run at the same
	// scale, mirroring how the paper computes E(I) in Fig. 3.
	oo := o.withDefaults()
	probe := oo.apply(config.RandomWaypoint())
	probe.GenIntervalLo = 0
	probe.Name = "ablation-rate-probe"
	im, err := measureIntermeeting(probe)
	if err != nil {
		return nil, err
	}
	trueMean := im.Mean()
	if trueMean <= 0 {
		trueMean = base.PriorMeanIntermeeting
	}
	return ablationSweep("ablation-rate", "estimated λ vs oracle λ", base, []curve{
		{"SDSRP estimated", func(*config.Scenario) {}},
		{"SDSRP oracle-rate", func(sc *config.Scenario) { sc.OracleRateMean = trueMean }},
	}, o)
}

// AblationDropList compares SDSRP with and without the Fig. 5 dropped-list
// gossip: without it d̂_i = 0 and re-receipt of dropped messages is allowed.
func AblationDropList(o Options) ([]report.Panel, error) {
	base := config.RandomWaypoint()
	base.PolicyName = "SDSRP"
	return ablationSweep("ablation-droplist", "dropped-list gossip on/off", base, []curve{
		{"SDSRP", func(*config.Scenario) {}},
		{"SDSRP no-droplist", func(sc *config.Scenario) { sc.DisableDropList = true }},
	}, o)
}

// AblationTaylor compares the closed-form Eq. 10 priority against the
// Eq. 13 Taylor truncations the paper proposes for cheaper computation.
func AblationTaylor(o Options) ([]report.Panel, error) {
	base := config.RandomWaypoint()
	return ablationSweep("ablation-taylor", "Eq.13 Taylor depth", base, []curve{
		{"SDSRP", func(sc *config.Scenario) { sc.PolicyName = "SDSRP" }},
		{"SDSRP-Taylor1", func(sc *config.Scenario) { sc.PolicyName = "SDSRP-Taylor1" }},
		{"SDSRP-Taylor3", func(sc *config.Scenario) { sc.PolicyName = "SDSRP-Taylor3" }},
	}, o)
}

// AblationOracleUtility compares SDSRP's distributed estimates of
// (m_i, n_i) against a GBSD-style oracle that reads the simulator's ground
// truth — the upper bound on what the Eq. 10 utility can achieve.
func AblationOracleUtility(o Options) ([]report.Panel, error) {
	base := config.RandomWaypoint()
	return ablationSweep("ablation-oracle", "estimated vs ground-truth spread", base, []curve{
		{"SDSRP", func(sc *config.Scenario) { sc.PolicyName = "SDSRP" }},
		{"OracleUtility", func(sc *config.Scenario) { sc.PolicyName = "OracleUtility" }},
	}, o)
}

// AblationLambda compares the default contact-census λ estimator against
// the paper-literal intermeeting-gap average (censored at experiment
// scale — see core.CensusEstimator) and the fixed-rate oracle.
func AblationLambda(o Options) ([]report.Panel, error) {
	base := config.RandomWaypoint()
	base.PolicyName = "SDSRP"
	return ablationSweep("ablation-lambda", "λ estimator: census vs gap-average", base, []curve{
		{"SDSRP census-λ", func(*config.Scenario) {}},
		{"SDSRP gap-λ", func(sc *config.Scenario) { sc.GapLambdaEstimator = true }},
	}, o)
}

// AblationPreflight compares the paper's Algorithm 1 receive-then-drop
// overflow handling against preflight refusal (evaluate the eviction plan
// before any bytes move), which saves the wasted transfers Algorithm 1
// charges to the heuristic policies.
func AblationPreflight(o Options) ([]report.Panel, error) {
	base := config.RandomWaypoint()
	return ablationSweep("ablation-preflight", "receive-then-drop vs preflight refusal", base, []curve{
		{"SDSRP rtd", func(sc *config.Scenario) { sc.PolicyName = "SDSRP" }},
		{"SDSRP preflight", func(sc *config.Scenario) { sc.PolicyName = "SDSRP"; sc.PreflightEviction = true }},
		{"FIFO rtd", func(sc *config.Scenario) { sc.PolicyName = "SprayAndWait" }},
		{"FIFO preflight", func(sc *config.Scenario) { sc.PolicyName = "SprayAndWait"; sc.PreflightEviction = true }},
	}, o)
}

// ExtraProtocols is an extension beyond the paper: the same congested
// buffer sweep under different routing protocols (all with FIFO buffers),
// situating binary Spray-and-Wait between Epidemic's flooding and Direct
// Delivery's single-copy frugality, with source spray and Spray-and-Focus
// alongside.
func ExtraProtocols(o Options) ([]report.Panel, error) {
	base := config.RandomWaypoint()
	base.PolicyName = "SprayAndWait"
	return ablationSweep("extra-protocols", "routing protocols under FIFO buffers", base, []curve{
		{"spray-and-wait", func(sc *config.Scenario) { sc.ProtocolName = "spray-and-wait" }},
		{"snw-source", func(sc *config.Scenario) { sc.ProtocolName = "spray-and-wait-source" }},
		{"spray-and-focus", func(sc *config.Scenario) { sc.ProtocolName = "spray-and-focus" }},
		{"snw-predict", func(sc *config.Scenario) { sc.ProtocolName = "spray-and-wait-predict" }},
		{"prophet", func(sc *config.Scenario) { sc.ProtocolName = "prophet" }},
		{"epidemic", func(sc *config.Scenario) { sc.ProtocolName = "epidemic" }},
		{"direct", func(sc *config.Scenario) { sc.ProtocolName = "direct" }},
	}, o)
}

// ExtraAck is an extension beyond the paper: the same buffer sweep with the
// ACK/immunization mechanism the paper's model excludes (Section III-A),
// for plain Spray-and-Wait and SDSRP. It bounds how much of the congestion
// problem immunization alone would solve.
func ExtraAck(o Options) ([]report.Panel, error) {
	base := config.RandomWaypoint()
	return ablationSweep("extra-ack", "ACK immunization on/off", base, []curve{
		{"FIFO", func(sc *config.Scenario) { sc.PolicyName = "SprayAndWait" }},
		{"FIFO+ack", func(sc *config.Scenario) { sc.PolicyName = "SprayAndWait"; sc.UseAcks = true }},
		{"SDSRP", func(sc *config.Scenario) { sc.PolicyName = "SDSRP" }},
		{"SDSRP+ack", func(sc *config.Scenario) { sc.PolicyName = "SDSRP"; sc.UseAcks = true }},
	}, o)
}

// ExtraSizes is an extension beyond the paper: heterogeneous payloads
// (0.25–1 MB instead of fixed 0.5 MB) across the buffer sweep, comparing
// size-blind policies against the size-aware Knapsack (utility per byte,
// after the authors' EWSN 2015 follow-up) and DropLargest.
func ExtraSizes(o Options) ([]report.Panel, error) {
	base := config.RandomWaypoint()
	base.MessageSize = config.MB / 4
	base.MessageSizeHi = config.MB
	return ablationSweep("extra-sizes", "heterogeneous payloads (0.25-1 MB)", base, []curve{
		{"FIFO", func(sc *config.Scenario) { sc.PolicyName = "SprayAndWait" }},
		{"SDSRP", func(sc *config.Scenario) { sc.PolicyName = "SDSRP" }},
		{"Knapsack", func(sc *config.Scenario) { sc.PolicyName = "Knapsack" }},
		{"DropLargest", func(sc *config.Scenario) { sc.PolicyName = "DropLargest" }},
	}, o)
}

// ExtraEnergy is an extension beyond the paper: finite batteries (the
// paper's model has none). Radios drain while scanning and transferring;
// policies that waste fewer transfers keep the fleet alive longer, turning
// SDSRP's overhead advantage into a survivability advantage.
func ExtraEnergy(o Options) ([]report.Panel, error) {
	base := config.RandomWaypoint()
	base.Energy = config.Energy{
		// Scanning alone spends 9 kJ over the 18 000 s run; the remaining
		// ~21 kJ buys on the order of 90 transfers at 0.5 MB — below what
		// wasteful policies attempt, so radio economy decides who survives.
		Capacity:   30000,
		ScanPerSec: 0.5,
		TxPerSec:   15,
		RxPerSec:   10,
	}
	return ablationSweep("extra-energy", "finite batteries", base, []curve{
		{"FIFO", func(sc *config.Scenario) { sc.PolicyName = "SprayAndWait" }},
		{"SW-C", func(sc *config.Scenario) { sc.PolicyName = "SprayAndWait-C" }},
		{"SDSRP", func(sc *config.Scenario) { sc.PolicyName = "SDSRP" }},
	}, o)
}

// ExtraMap is an extension beyond the paper: the four buffer-management
// strategies on map-constrained mobility (shortest paths over a Manhattan
// street grid, the ONE simulator's signature model) instead of free-space
// random waypoint. Street geometry concentrates encounters on shared
// corridors; the experiment shows the policy ordering is not an artifact
// of open-field RWP.
func ExtraMap(o Options) ([]report.Panel, error) {
	base := config.RandomWaypoint()
	base.Mobility = config.Mobility{
		Kind:    config.MobilityMapGrid,
		SpeedLo: 2, SpeedHi: 2,
		MapCols: 12, MapRows: 9, MapSpacing: 400, MapDropProb: 0.1,
	}
	base.PriorMeanIntermeeting = 20000
	return ablationSweep("extra-map", "street-grid mobility (map-based movement)", base, []curve{
		{"SprayAndWait", func(sc *config.Scenario) { sc.PolicyName = "SprayAndWait" }},
		{"SprayAndWait-O", func(sc *config.Scenario) { sc.PolicyName = "SprayAndWait-O" }},
		{"SprayAndWait-C", func(sc *config.Scenario) { sc.PolicyName = "SprayAndWait-C" }},
		{"SDSRP", func(sc *config.Scenario) { sc.PolicyName = "SDSRP" }},
	}, o)
}

// Spec names one runnable experiment for cmd/experiments.
type Spec struct {
	Name string
	Desc string
	Run  func(Options) ([]report.Panel, error)
}

// All returns the experiment registry: every paper figure plus the
// ablations, in presentation order.
func All() []Spec {
	return []Spec{
		{"fig3", "Intermeeting time distributions (RWP + EPFL substitute)", Fig3},
		{"fig4", "Priority U vs P(R): idealization and Taylor truncations", Fig4},
		{"fig8copies", "RWP: metrics vs initial copies (Fig. 8 a-c)", Fig8Copies},
		{"fig8buffer", "RWP: metrics vs buffer size (Fig. 8 d-f)", Fig8Buffer},
		{"fig8rate", "RWP: metrics vs generation rate (Fig. 8 g-i)", Fig8Rate},
		{"fig9copies", "EPFL: metrics vs initial copies (Fig. 9 a-c)", Fig9Copies},
		{"fig9buffer", "EPFL: metrics vs buffer size (Fig. 9 d-f)", Fig9Buffer},
		{"fig9rate", "EPFL: metrics vs generation rate (Fig. 9 g-i)", Fig9Rate},
		{"ablation-rate", "SDSRP: estimated vs oracle intermeeting rate", AblationRate},
		{"ablation-droplist", "SDSRP: dropped-list gossip on/off", AblationDropList},
		{"ablation-taylor", "SDSRP: Taylor-truncated priority", AblationTaylor},
		{"ablation-oracle", "SDSRP vs ground-truth-utility (GBSD-style)", AblationOracleUtility},
		{"ablation-lambda", "SDSRP: census vs gap-average λ estimation", AblationLambda},
		{"ablation-preflight", "overflow semantics: receive-then-drop vs preflight", AblationPreflight},
		{"extra-protocols", "extension: routing-protocol comparison under FIFO", ExtraProtocols},
		{"extra-ack", "extension: ACK immunization the paper's model excludes", ExtraAck},
		{"extra-sizes", "extension: heterogeneous payloads with size-aware policies", ExtraSizes},
		{"extra-energy", "extension: finite batteries (radio economy as survivability)", ExtraEnergy},
		{"extra-map", "extension: paper policies on street-grid (map-based) mobility", ExtraMap},
		{"resilience-loss", "resilience: metrics vs per-transfer loss probability", ResilienceLoss},
		{"resilience-churn", "resilience: metrics vs node crash/reboot churn", ResilienceChurn},
		{"resilience-blackhole", "resilience: metrics vs black-hole node fraction", ResilienceBlackhole},
	}
}

// ByName returns the spec with the given name.
func ByName(name string) (Spec, bool) {
	for _, s := range All() {
		if s.Name == name {
			return s, true
		}
	}
	return Spec{}, false
}
