package experiment

import (
	"fmt"

	"sdsrp/internal/config"
	"sdsrp/internal/fault"
	"sdsrp/internal/report"
)

// resilienceSweep runs the compared policies across a fault-intensity axis
// (instead of the usual buffer-size axis). setFault installs the fault
// config for intensity xs[i] into a scenario whose Duration has already
// been scaled.
func resilienceSweep(id, title, xlabel string, xs []float64,
	setFault func(*config.Scenario, float64), o Options) ([]report.Panel, error) {
	ax := axis{label: xlabel, x: xs,
		apply: func(sc *config.Scenario, i int) { setFault(sc, xs[i]) }}
	for _, x := range xs {
		ax.ticks = append(ax.ticks, fmt.Sprintf("%g", x))
	}
	return runSweep(config.RandomWaypoint(), sweep{id: id, axis: ax,
		panel: letteredPanels(id, title)}, o)
}

// ResilienceLoss sweeps per-transfer loss probability: transfers complete on
// the wire (spending contact time and spray tokens) but the payload is
// discarded at the receiver. Redundancy-heavy policies shrug it off;
// token-frugal ones pay more per lost copy.
func ResilienceLoss(o Options) ([]report.Panel, error) {
	return resilienceSweep("resilience-loss", "transfer loss", "loss probability",
		[]float64{0, 0.1, 0.2, 0.3, 0.4}, func(sc *config.Scenario, p float64) {
			sc.Faults.TransferLossProb = p
		}, o)
}

// ResilienceChurn sweeps node crash/reboot churn with buffer wipe: the
// x-axis is the expected number of outages per node over the run (mean
// uptime = Duration/k), each outage lasting 1/40 of the run on average.
// Wiping reboots destroy queued copies, so buffer-management quality
// matters more the less redundancy survives.
func ResilienceChurn(o Options) ([]report.Panel, error) {
	return resilienceSweep("resilience-churn", "node churn (wiping reboots)", "expected outages per node",
		[]float64{0, 1, 2, 4, 8}, func(sc *config.Scenario, k float64) {
			if k == 0 {
				return // no churn at the baseline point
			}
			sc.Faults.Churn = fault.Churn{
				MeanUp:       sc.Duration / k,
				MeanDown:     sc.Duration / 40,
				WipeOnReboot: true,
			}
		}, o)
}

// ResilienceBlackhole sweeps the fraction of nodes that accept every copy
// and silently discard it: the classic DTN black-hole attack. Senders keep
// spending spray tokens on attackers, so delivery degrades faster than the
// removed-node fraction alone would suggest.
func ResilienceBlackhole(o Options) ([]report.Panel, error) {
	return resilienceSweep("resilience-blackhole", "black-hole nodes", "black-hole fraction",
		[]float64{0, 0.1, 0.2, 0.3, 0.4}, func(sc *config.Scenario, f float64) {
			sc.Faults.BlackHoleFraction = f
		}, o)
}
