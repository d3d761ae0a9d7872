// Command dtnworkload is the simulator's workload benchmark: it measures
// four workloads end to end with tracing off, and, in a separate traced
// run, attributes their cost to the simulator's layers.
//
// It is a module of its own so that it builds from a checkout of the
// repository without joining `go build ./...`; for the same reason the root
// `go test ./...` does not run its tests, which run with
// `cd cmd/dtnworkload && go test .`. run.sh builds it into .bench_build/
// and runs it; from the repository root:
//
//	bash cmd/dtnworkload/run.sh --workload rwp-long --seed 1 --seconds 25 --trace 0
//	bash cmd/dtnworkload/run.sh --workload taxi --seed 1 --trace 1 --spans spans.json
//
// Each run prints one `name value unit` line per metric, then `fail_ratio`,
// then a JSON object on the last line:
//
//	{"correct":true,"attempted":2,"failed":0,"metrics":{"wall_s":{"value":2.05,"unit":"s"},…}}
//
// A workload's worlds use seeds S, S+1, … for --seed S. All load comes from
// this one process; sweeps run with experiment.Options.Workers = 1, and the
// engine is single-threaded, so only the garbage collector uses a second
// core.
//
// # Workloads
//
// Each layer likely to be optimised does most of its work in one workload
// and little in another:
//
//   - rwp-long: config.RandomWaypoint (Table II: 100 nodes, SDSRP, L=32)
//     with Duration 90 000 s; 2 worlds. Drop-list gossip dominates, because
//     merge cost grows with run length; policy scoring comes second.
//   - taxi: config.EPFL (Table III: 200 taxis, 18 000 s); 6 worlds. The
//     contact scan dominates under the lazy→naive fallback. Gossip is
//     merge-heavy but write-light, so a gossip change that moves cost
//     between writes and merges shows opposite signs here and on rwp-long.
//   - fleet-10k: bench.Scan100kScenario at a tenth of the nodes on a tenth
//     of the area (10 000 traffic-free nodes at the same density, kinetic
//     scan, 500 m cells, 300 s); 16 worlds. Kinetic scan and set-up. Gossip
//     merges only empty tables and policy and transfer do no work: the
//     control on which routing changes must show no change. The 100 000-node
//     world itself is not a workload, because its time swung by 15–40 %
//     between runs (see fleet10k).
//   - fig8-buffer: experiment "fig8buffer" with Nodes 100, Scale 1,
//     Workers 1, Seeds {S}: 7 buffer sizes × 4 policies = 28 worlds. This is
//     what users run to regenerate figures; three of the four policies skip
//     gossip and SDSRP scoring, and 28 world constructions exercise per-run
//     set-up and the experiment runner.
//
// # End-to-end metrics (--trace 0)
//
// All are lower-is-better; the bound is the share of the parent's median by
// which a change may worsen the metric before it counts as a regression.
// Timed iterations of the whole workload repeat, at least three, while one
// more, as long as the last, would end within --seconds.
//
// Both times are scaled to a reference host speed. The host the bounds were
// set on, a shared 2-vCPU Xeon virtual machine, runs the same deterministic
// work up to a third slower from one hour to the next, and 10–30 % slower
// from one run to the next, with CPU time moving with wall time, so the
// slowdown is the host's and not the scheduler's. Between worlds, at most
// every half second, a run times calibrate, a fixed kernel of event-queue,
// map and pointer-walk work that uses none of the simulator's code, and
// multiplies its times by calibRef over the median of those samples. The
// unscaled times and the calibration go to stderr.
//
//   - wall_s (s, bound 25 %): the wall time from scenario to Result, summed
//     over the workload's worlds, each world's time being its median over
//     iterations; fig8-buffer adds the median of the runner's own time
//     outside the worlds, calibration excluded. Scaled.
//   - setup_s (s, bound 25 %): median over iterations of the summed
//     world.Build time of the workload's worlds. Scaled.
//   - heap_mb (MB, bound 5 %): the largest live heap after a forced
//     collection at the end of a world's Run, the world still reachable,
//     measured outside the timer. fig8-buffer takes it from an untimed
//     rebuild of each Result.Scenario. It repeats exactly for a seed, and
//     its spread over ten seeds is at most 2.2 %.
//
// In two sets of ten runs of 25 s on seeds 1–10 and 11–20, each run of
// every workload interleaved, the spread of wall_s (interquartile range over
// median) was 5.6 and 5.8 % on rwp-long, 6.8 and 3.6 % on taxi, 6.4 and
// 3.8 % on fleet-10k and 4.5 and 7.7 % on fig8-buffer; unscaled, the same
// runs spread by 5–17 %. The two sets' medians differed by at most 2.1 % on
// wall_s, 6.6 % on setup_s and 0.5 % on heap_mb. The time bounds are the
// largest the benchmark format allows, not the 10 % first planned: they
// must hold on hours when the host is busy, and set-up time, a few
// milliseconds on rwp-long and fig8-buffer, spread by up to 11 %.
//
// fail_ratio (failed worlds ÷ worlds attempted) is printed as a line and
// reported as the JSON object's failed and attempted counts. A world fails
// on a Build or Run error, a fingerprint that differs between iterations, a
// seed-1 full-horizon fingerprint that differs from its pinned value, or,
// traced, a failed self-check.
//
// # Per-layer metrics (--trace 1)
//
// Each layer is measured from outside, by timing calls into its public
// functions; no engine package is instrumented. For every world the traced
// run makes four runs: a plain run, a tracer run, a policy-wrapped run and
// a scan twin. The layers, with the end-to-end metric and workload each
// should move:
//
//   - setup (config, world, mobility construction, trace synthesis):
//     setup.nodes, setup.us_per_node, from timing world.Build. Moves setup_s
//     on fleet-10k and taxi (trace synthesis); negligible on rwp-long.
//   - scan (network, geo, mobility): scan.run_s and scan.share from a
//     timed scan twin of each world (GenIntervalLo = 0; its contact count
//     must equal the full run's); scan.pairs_checked, scan.pairs_skipped,
//     scan.wakeups, scan.contacts, scan.hit_ratio (contacts ÷ pairs
//     checked) and scan.fallback_worlds from Result.Perf. Moves wall_s on
//     taxi, fleet-10k and fig8-buffer; about a quarter of rwp-long.
//   - gossip (core.DropTable): gossip.merge_s, .merges, .merge_us,
//     .record_s, .records, .forget_s, .forgets, .entries (Σ DroppedCount
//     over all tables at the end) and .share, from replaying the tracer
//     run's events into fresh tables (replayGossip) and timing each call.
//     The replayed tables must equal every node's live Host.DropTable().
//     Moves wall_s and heap_mb on rwp-long, some of taxi, none of
//     fleet-10k.
//   - policy (policy, plus the SDSRP scoring in core and routing it reaches
//     through policy.View): policy.send_scores, .drop_scores, .score_s,
//     .score_ns and .share, from a "<name>~bench" policy registered with
//     policy.Register that delegates to the named policy and times every
//     SendScore and DropScore; each timed call includes one clock read. The
//     wrapped run's Summary must equal the plain run's. Moves wall_s on
//     rwp-long and fig8-buffer; none of fleet-10k.
//   - transfer (the routing and network transfer ladder):
//     transfer.started, .committed (forwarded + delivered), .aborted,
//     .refused, .lost, .delivered, .dropped and .commit_ratio, counted by
//     a benchmark-side obs.Tracer. Moves wall_s on rwp-long and taxi.
//   - engine (sim, eventq): engine.events, engine.peak_queue from
//     Result.Perf and engine.ns_per_event from the timed plain run. Moves
//     wall_s on every workload, in proportion to events.
//   - obs: obs.events, obs.overhead_share (traced Run ÷ plain Run − 1) and
//     obs.jsonl_ns_per_event (captured events re-encoded through the JSONL
//     sink into io.Discard). No end-to-end metric runs traced, so none
//     should move; it guards the nil-tracer path.
//   - experiment: experiment.runs and experiment.overhead_s (sweep wall −
//     Σ ProgressInfo.LastRunWall), from timing Spec.Run. fig8-buffer only;
//     zero elsewhere.
//   - alloc: alloc.mb, alloc.count and alloc.gc_cycles, runtime.MemStats
//     deltas over each plain run. Moves wall_s through the collector, and
//     heap_mb.
//   - residual: other.share = 1 − scan.share − gossip.share − policy.share,
//     which is transfer, buffer, stats and the engine together.
//
// In traced runs at seed 1 on a 2-vCPU Xeon virtual machine, gossip.share
// was 0.51–0.60 and scan.share 0.21–0.25 on rwp-long, scan.share 0.66–0.71
// and gossip.share 0.16–0.17 on taxi, and scan.share 0.93 on fleet-10k,
// where gossip.share was 0.0006 and policy.share 0.
//
// With --spans FILE the traced run also writes its spans (workload,
// experiment, world, build, run, run.traced, replay.gossip, encode.jsonl,
// run.policy, run.scan_twin) as JSON after the run: name, parent index, and
// start, end and self time in seconds. A span's self time is its duration
// minus the time its children cover. Spans stay in memory until then, and
// per-call policy and gossip timings are aggregated, not recorded as spans.
//
// PERFORMANCE.md §6–7 still carry pprof-based layer claims; rewriting them
// from the traced numbers is a follow-up change.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
)

// metric is one named measurement.
type metric struct {
	name  string
	value float64
	unit  string
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("dtnworkload", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "", "workload: rwp-long, taxi, fleet-10k or fig8-buffer")
		seed    = fs.Uint64("seed", 1, "seed S; the workload's worlds use S, S+1, …")
		seconds = fs.Float64("seconds", 25, "end-to-end: keep repeating timed iterations for this long (at least three)")
		trace   = fs.Int("trace", 0, "1 runs the traced per-layer measurement instead of the end-to-end one")
		spans   = fs.String("spans", "", "traced: write the run's spans as JSON to this file")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "dtnworkload: unexpected argument %q\n", fs.Arg(0))
		return 2
	}
	wl, ok := workloadByName(*name)
	if !ok {
		fmt.Fprintf(stderr, "dtnworkload: unknown workload %q\n", *name)
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintf(stderr, "dtnworkload: -trace must be 0 or 1, got %d\n", *trace)
		return 2
	}
	if *spans != "" && *trace != 1 {
		fmt.Fprintln(stderr, "dtnworkload: -spans needs -trace 1")
		return 2
	}

	var metrics []metric
	var o *outcome
	if *trace == 1 {
		log := newSpanLog()
		metrics, o = traced(wl, *seed, 1, log)
		if *spans != "" {
			if err := writeSpans(*spans, log.spans); err != nil {
				fmt.Fprintln(stderr, "dtnworkload:", err)
				return 2
			}
		}
	} else {
		metrics, o = endToEnd(wl, *seed, *seconds, 1)
	}
	for _, p := range o.problems {
		fmt.Fprintln(stderr, "dtnworkload: FAIL", p)
	}
	if o.note != "" {
		fmt.Fprintln(stderr, "dtnworkload:", o.note)
	}
	if err := report(stdout, metrics, o); err != nil {
		fmt.Fprintln(stderr, "dtnworkload:", err)
		return 2
	}
	return 0
}

// report prints each metric as `name value unit`, then fail_ratio, then
// the result object as the last line.
func report(w io.Writer, metrics []metric, o *outcome) error {
	failed := o.failures()
	res := jsonResult{
		Correct:   failed == 0,
		Attempted: o.attempted,
		Failed:    failed,
		Metrics:   make(map[string]jsonMetric, len(metrics)),
	}
	for _, m := range metrics {
		fmt.Fprintf(w, "%s %s %s\n", m.name, strconv.FormatFloat(m.value, 'g', -1, 64), m.unit)
		res.Metrics[m.name] = jsonMetric{m.value, m.unit}
	}
	fmt.Fprintf(w, "fail_ratio %s ratio\n", strconv.FormatFloat(ratio(float64(failed), float64(o.attempted)), 'g', -1, 64))
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}
