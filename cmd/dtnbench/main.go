// Command dtnbench runs the reproducible performance-regression suite
// (internal/bench) and emits a byte-stable BENCH_<n>.json report, optionally
// gated against a previous report.
//
// Usage:
//
//	dtnbench -list
//	dtnbench -out BENCH_4.json
//	dtnbench -out BENCH_4.json -baseline BENCH_3.json -max-regress 10
//	dtnbench -smoke -out /tmp/smoke.json
//
// Exit codes: 0 success, 1 regression gate failed (ns/op worse than
// -max-regress percent, a case's sim digest changed, or a baseline case
// vanished), 2 usage or runtime error.
//
// The suite and its reading are documented in PERFORMANCE.md.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"sdsrp/internal/bench"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		out        = flag.String("out", "", "write the BENCH_<n>.json report to this path")
		baseline   = flag.String("baseline", "", "previous BENCH_<n>.json to diff and gate against")
		maxRegress = flag.Float64("max-regress", 10, "fail (exit 1) when any case's ns/op regresses more than this percent")
		cases      = flag.String("cases", "", "comma-separated case names to run (default: all; see -list)")
		iters      = flag.Int("iters", 3, "measured iterations per case (min 2; the extra iterations double as a determinism check)")
		smoke      = flag.Bool("smoke", false, "run only the smoke case (shorthand for -cases smoke)")
		list       = flag.Bool("list", false, "list suite cases and exit")
		quiet      = flag.Bool("quiet", false, "suppress per-case progress on stderr")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "dtnbench: unexpected argument %q\n", flag.Arg(0))
		return 2
	}

	if *list {
		for _, c := range bench.Suite() {
			fmt.Printf("%-18s %s\n", c.Name, c.Desc)
		}
		return 0
	}

	cfg := bench.Config{Iters: *iters}
	if *smoke {
		cfg.Cases = []string{"smoke"}
	} else if *cases != "" {
		for _, n := range strings.Split(*cases, ",") {
			if n = strings.TrimSpace(n); n != "" {
				cfg.Cases = append(cfg.Cases, n)
			}
		}
	}
	if !*quiet {
		cfg.Progress = func(msg string) { fmt.Fprintln(os.Stderr, "dtnbench:", msg) }
	}

	rep, err := bench.RunSuite(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dtnbench:", err)
		return 2
	}

	if *out != "" {
		if err := rep.WriteFile(*out); err != nil {
			fmt.Fprintln(os.Stderr, "dtnbench:", err)
			return 2
		}
		if !*quiet {
			fmt.Fprintln(os.Stderr, "dtnbench: wrote", *out)
		}
	} else if *baseline == "" {
		// No report file and no baseline: print the report itself.
		if err := rep.WriteJSON(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "dtnbench:", err)
			return 2
		}
	}

	if *baseline != "" {
		base, err := bench.ReadFile(*baseline)
		if err != nil {
			fmt.Fprintln(os.Stderr, "dtnbench:", err)
			return 2
		}
		if base.Suite != rep.Suite {
			fmt.Fprintf(os.Stderr, "dtnbench: baseline suite %q != current suite %q — not comparable\n", base.Suite, rep.Suite)
			return 2
		}
		if len(cfg.Cases) > 0 {
			// The run was filtered: restrict the baseline to the selection so
			// deliberately skipped cases are not reported as missing.
			filtered := *base
			filtered.Cases = nil
			for _, c := range base.Cases {
				for _, want := range cfg.Cases {
					if c.Name == want {
						filtered.Cases = append(filtered.Cases, c)
						break
					}
				}
			}
			base = &filtered
		}
		deltas := bench.Compare(base, rep)
		fmt.Print(bench.FormatDeltas(deltas, *maxRegress))
		if regs := bench.Regressions(deltas, *maxRegress); len(regs) > 0 {
			fmt.Fprintf(os.Stderr, "dtnbench: %d case(s) failed the regression gate (max %+.1f%% ns/op)\n", len(regs), *maxRegress)
			return 1
		}
		fmt.Fprintln(os.Stderr, "dtnbench: gate passed")
	}
	return 0
}
