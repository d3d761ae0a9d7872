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

// traceStats is the digest folded from one event log. Its summary replicates
// the collector's arithmetic exactly (integer hop sums, latency sums
// accumulated in delivery order, nearest-rank percentiles) from the
// ledger's counts and deliveries, so a warmup-free dtnsim run prints
// byte-identical lines.
type traceStats struct {
	contacts int
	summary  stats.Summary

	kinds map[string]uint64
	fates map[string]int
	// scores are the drop scores of the log's policy evictions.
	scores []float64
}

func computeStats(l *obs.Ledger) traceStats {
	count := func(t obs.Type) int { return int(l.Count(t)) }
	s := traceStats{
		contacts: count(obs.ContactUp),
		summary: stats.Summary{
			Created:      count(obs.MessageCreated),
			Delivered:    count(obs.MessageDelivered),
			Forwards:     count(obs.MessageForwarded) + count(obs.MessageDelivered),
			Started:      count(obs.TransferStart),
			Aborted:      count(obs.TransferAbort),
			Refused:      count(obs.MessageRefused),
			Lost:         count(obs.TransferLost),
			PolicyDrops:  count(obs.MessageDropped),
			ExpiredDrops: count(obs.MessageExpired),
		},
		kinds: make(map[string]uint64),
		fates: make(map[string]int),
	}
	sum := &s.summary
	if sum.Created > 0 {
		sum.DeliveryRatio = float64(sum.Delivered) / float64(sum.Created)
	}
	var hopSum int
	var latSum float64
	var lat stats.Sampler
	for _, r := range l.Deliveries() {
		hopSum += r.Hops
		latSum += r.Latency
		lat.Add(r.Latency)
	}
	if sum.Delivered > 0 {
		n := float64(sum.Delivered)
		sum.AvgHops = float64(hopSum) / n
		sum.AvgLatency = latSum / n
		sum.MedianLatency = lat.Percentile(0.5)
		sum.P95Latency = lat.Percentile(0.95)
		sum.OverheadRatio = float64(sum.Forwards-sum.Delivered) / n
	} else if sum.Forwards > 0 {
		sum.OverheadRatio = math.Inf(1)
	}
	for _, r := range l.Records() {
		s.fates[r.Fate]++
		for _, f := range r.Forwards {
			s.kinds[f.Kind]++
		}
		// purged events also cover churn wipes, so ACK purges are counted
		// by removal cause.
		for _, rm := range r.Removals {
			switch rm.Cause {
			case "ack":
				sum.AckPurges++
			case "policy":
				s.scores = append(s.scores, rm.Priority)
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
	ledger, err := foldFile(path)
	if err != nil {
		return err
	}
	s := computeStats(ledger)
	lines := stats.Lines(s.contacts, s.summary)

	fmt.Fprintf(out, "events          %d (%d snapshots)\n", ledger.Total(), ledger.Count(obs.Snapshot))
	for _, l := range lines {
		fmt.Fprintln(out, l)
	}
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
	if n := len(s.scores); n > 0 {
		lo, hi, sum := s.scores[0], s.scores[0], 0.0
		for _, v := range s.scores {
			lo, hi, sum = min(lo, v), max(hi, v), sum+v
		}
		fmt.Fprintf(out, "drop scores     n=%d min=%.3g mean=%.3g max=%.3g\n", n, lo, sum/float64(n), hi)
	}

	if *check != "" {
		if err := checkAgainstSim(out, lines, s.summary.Created, *check); err != nil {
			return err
		}
		fmt.Fprintf(out, "check           ok: trace agrees with %s\n", *check)
	}
	return nil
}

// checkAgainstSim cross-validates the trace's summary lines against a
// captured dtnsim stdout: the line with each label must read identically.
// dtnsim omits every line after contacts when no traffic ran, so a missing
// line is an error only when the trace created messages.
func checkAgainstSim(out io.Writer, want []string, created int, simPath string) error {
	f, err := os.Open(simPath)
	if err != nil {
		return err
	}
	defer f.Close()
	simLines := make(map[string]string) // label -> full line
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimRight(sc.Text(), " \t")
		simLines[label(line)] = line
	}
	if err := sc.Err(); err != nil {
		return err
	}
	var bad []string
	for _, w := range want {
		lb := label(w)
		got, ok := simLines[lb]
		switch {
		case !ok && created > 0:
			bad = append(bad, fmt.Sprintf("%s: missing from %s (trace says %q)", lb, simPath, w))
		case ok && got != w:
			bad = append(bad, fmt.Sprintf("%s:\n  sim:   %s\n  trace: %s", lb, got, w))
		}
	}
	if len(bad) > 0 {
		fmt.Fprintf(out, "check           FAILED: %d disagreement(s)\n", len(bad))
		return fmt.Errorf("trace disagrees with %s:\n%s", simPath, strings.Join(bad, "\n"))
	}
	return nil
}

// label is a summary line's label: the text before the padding that aligns
// its value.
func label(line string) string {
	lb, _, _ := strings.Cut(line, "  ")
	return lb
}
