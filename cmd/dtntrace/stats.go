package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strings"

	"sdsrp/internal/obs"
	"sdsrp/internal/stats"
)

// traceStats is the digest folded from one event log. The derived metrics
// replicate the collector's arithmetic exactly (integer hop sums, latency
// sums accumulated in delivery order, nearest-rank percentiles), so a
// warmup-free dtnsim run prints byte-identical numbers.
type traceStats struct {
	events    uint64
	snapshots uint64
	contacts  uint64
	created   uint64
	delivered uint64
	completed uint64
	started   uint64
	aborted   uint64
	refused   uint64
	lost      uint64
	policy    uint64
	expired   uint64
	acked     uint64

	ratio     float64
	avgHops   float64
	overhead  float64
	avgLat    float64
	medianLat float64
	p95Lat    float64

	kinds map[string]uint64
	fates map[string]int
}

func computeStats(l *obs.Ledger, m *obs.Metrics) traceStats {
	s := traceStats{
		snapshots: m.Count(obs.Snapshot),
		contacts:  m.Count(obs.ContactUp),
		created:   m.Count(obs.MessageCreated),
		delivered: m.Count(obs.MessageDelivered),
		completed: m.Count(obs.MessageForwarded) + m.Count(obs.MessageDelivered),
		started:   m.Count(obs.TransferStart),
		aborted:   m.Count(obs.TransferAbort),
		refused:   m.Count(obs.MessageRefused),
		lost:      m.Count(obs.TransferLost),
		policy:    m.Count(obs.MessageDropped),
		expired:   m.Count(obs.MessageExpired),
		kinds:     make(map[string]uint64),
		fates:     make(map[string]int),
	}
	s.events = m.Total()
	if s.created > 0 {
		s.ratio = float64(s.delivered) / float64(s.created)
	}
	var hopSum int
	var latSum float64
	var lat stats.Sampler
	for _, r := range l.Deliveries() {
		hopSum += r.Hops
		latSum += r.Latency
		lat.Add(r.Latency)
	}
	if s.delivered > 0 {
		n := float64(s.delivered)
		s.avgHops = float64(hopSum) / n
		s.avgLat = latSum / n
		s.medianLat = lat.Percentile(0.5)
		s.p95Lat = lat.Percentile(0.95)
		s.overhead = float64(s.completed-s.delivered) / n
	} else if s.completed > 0 {
		s.overhead = math.Inf(1)
	}
	for _, r := range l.Records() {
		s.fates[r.Fate]++
		for _, f := range r.Forwards {
			s.kinds[f.Kind]++
		}
		for _, rm := range r.Removals {
			if rm.Cause == "ack" {
				s.acked++
			}
		}
	}
	return s
}

// forwardKinds is the fixed emission order for the per-kind breakdown (a
// map walk would be nondeterministic).
var forwardKinds = []string{"spray", "spray-source", "relay", "handoff"}

// fateOrder is the fixed emission order for the fate breakdown.
var fateOrder = []string{obs.FateDelivered, obs.FateDropped, obs.FateExpired, obs.FateStranded, obs.FateWiped}

func runStats(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("stats", flag.ContinueOnError)
	check := fs.String("check", "", "captured dtnsim stdout to cross-check against (warmup-free runs only); exits non-zero on disagreement")
	if err := fs.Parse(args); err != nil {
		return err
	}
	path, err := onePath(fs.Args())
	if err != nil {
		return err
	}
	ledger, metrics, err := foldFile(path)
	if err != nil {
		return err
	}
	s := computeStats(ledger, metrics)

	fmt.Fprintf(out, "events          %d (%d snapshots)\n", s.events, s.snapshots)
	fmt.Fprintf(out, "contacts        %d\n", s.contacts)
	fmt.Fprintf(out, "created         %d\n", s.created)
	fmt.Fprintf(out, "delivered       %d (ratio %.4f)\n", s.delivered, s.ratio)
	fmt.Fprintf(out, "avg hopcounts   %.3f\n", s.avgHops)
	fmt.Fprintf(out, "overhead ratio  %.3f\n", s.overhead)
	fmt.Fprintf(out, "latency         avg=%.1fs median=%.1fs p95=%.1fs\n",
		s.avgLat, s.medianLat, s.p95Lat)
	fmt.Fprintf(out, "transfers       started=%d completed=%d aborted=%d refused=%d\n",
		s.started, s.completed, s.aborted, s.refused)
	if s.lost > 0 {
		fmt.Fprintf(out, "faults          transfers lost=%d\n", s.lost)
	}
	fmt.Fprintf(out, "drops           policy=%d expired=%d acked=%d\n", s.policy, s.expired, s.acked)
	var kinds []string
	for _, k := range forwardKinds {
		if s.kinds[k] > 0 {
			kinds = append(kinds, fmt.Sprintf("%s=%d", k, s.kinds[k]))
		}
	}
	if len(kinds) > 0 {
		fmt.Fprintf(out, "forwards        %s\n", strings.Join(kinds, " "))
	}
	var fates []string
	for _, f := range fateOrder {
		fates = append(fates, fmt.Sprintf("%s=%d", f, s.fates[f]))
	}
	fmt.Fprintf(out, "fates           %s\n", strings.Join(fates, " "))
	if p := metrics.EvictPriority; p.Count() > 0 {
		fmt.Fprintf(out, "drop scores     n=%d min=%.3g mean=%.3g max=%.3g\n",
			p.Count(), p.Min(), p.Mean(), p.Max())
	}

	if *check != "" {
		if err := checkAgainstSim(out, s, *check); err != nil {
			return err
		}
		fmt.Fprintf(out, "check           ok: trace agrees with %s\n", *check)
	}
	return nil
}

// checkAgainstSim cross-validates the trace digest against a captured
// dtnsim stdout: every overlapping line must render identically.
func checkAgainstSim(out io.Writer, s traceStats, simPath string) error {
	f, err := os.Open(simPath)
	if err != nil {
		return err
	}
	defer f.Close()
	simLines := make(map[string]string) // label prefix -> full line
	labels := []string{"contacts", "created", "delivered", "avg hopcounts",
		"overhead ratio", "latency", "transfers", "drops", "faults"}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimRight(sc.Text(), " \t")
		for _, lb := range labels {
			if strings.HasPrefix(line, lb+" ") {
				simLines[lb] = line
				break
			}
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	type check struct{ label, want string }
	checks := []check{
		{"contacts", fmt.Sprintf("contacts        %d", s.contacts)},
		{"created", fmt.Sprintf("created         %d", s.created)},
		{"delivered", fmt.Sprintf("delivered       %d (ratio %.4f)", s.delivered, s.ratio)},
		{"avg hopcounts", fmt.Sprintf("avg hopcounts   %.3f", s.avgHops)},
		{"overhead ratio", fmt.Sprintf("overhead ratio  %.3f", s.overhead)},
		{"latency", fmt.Sprintf("latency         avg=%.1fs median=%.1fs p95=%.1fs",
			s.avgLat, s.medianLat, s.p95Lat)},
		{"transfers", fmt.Sprintf("transfers       started=%d completed=%d aborted=%d refused=%d",
			s.started, s.completed, s.aborted, s.refused)},
		{"drops", fmt.Sprintf("drops           policy=%d expired=%d acked=%d", s.policy, s.expired, s.acked)},
	}
	if s.lost > 0 {
		checks = append(checks, check{"faults",
			fmt.Sprintf("faults          transfers lost=%d", s.lost)})
	}
	var bad []string
	for _, c := range checks {
		got, ok := simLines[c.label]
		if !ok {
			// dtnsim omits the created-block when no traffic ran; only a
			// non-trivial trace expectation makes the absence an error.
			if c.want != "" && s.created > 0 {
				bad = append(bad, fmt.Sprintf("%s: missing from %s (trace says %q)", c.label, simPath, c.want))
			}
			continue
		}
		if got != c.want {
			bad = append(bad, fmt.Sprintf("%s:\n  sim:   %s\n  trace: %s", c.label, got, c.want))
		}
	}
	if len(bad) > 0 {
		fmt.Fprintf(out, "check           FAILED: %d disagreement(s)\n", len(bad))
		return fmt.Errorf("trace disagrees with %s:\n%s", simPath, strings.Join(bad, "\n"))
	}
	return nil
}
