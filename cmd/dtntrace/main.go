// Command dtntrace analyzes structured event logs written by dtnsim
// (-events trace.jsonl, optionally gzipped as trace.jsonl.gz).
//
// Subcommands:
//
//	dtntrace paths [-msg id] [-jsonl] trace.jsonl
//	    Reconstruct per-message provenance: custody chain of delivered
//	    messages, terminal fate (delivered/expired/dropped/stranded/wiped),
//	    and where copies died. -jsonl dumps the full ledger records, each
//	    with its live copies and true m_i (seen) at the horizon.
//
//	dtntrace stats [-check sim.txt] trace.jsonl
//	    Delay/hop/drop-cause breakdowns folded from the trace. With -check,
//	    cross-validates against a captured dtnsim stdout and exits non-zero
//	    on any disagreement (the trace-smoke differential gate).
//
//	dtntrace series [-per-node] trace.jsonl
//	    Emit the snapshot time-series (buffer occupancy and fill, live
//	    copies, active contacts, queue depth, and the created, delivered,
//	    forwarded and dropped counts so far) as CSV for plotting.
//
//	dtntrace diff [-context n] a.jsonl b.jsonl
//	    Localize the first divergent event between two traces with
//	    file:line context, or report byte-identity. Exit 1 on divergence —
//	    the standing differential gate for engine/scanner changes.
package main

import (
	"fmt"
	"io"
	"os"

	"sdsrp/internal/obs"
)

const usage = `usage: dtntrace <command> [flags] <trace.jsonl[.gz]> ...

commands:
  paths    reconstruct per-message custody chains and terminal fates
  stats    delay/hop/drop-cause breakdowns (use -check to gate against dtnsim output)
  series   snapshot time-series as CSV (buffer occupancy, copies, contacts, queue, counters)
  diff     first-divergent-event localization between two traces (exit 1 on divergence)

run 'dtntrace <command> -h' for command flags.`

func main() {
	if len(os.Args) < 2 {
		fmt.Fprintln(os.Stderr, usage)
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "paths":
		err = runPaths(os.Args[2:], os.Stdout)
	case "stats":
		err = runStats(os.Args[2:], os.Stdout)
	case "series":
		err = runSeries(os.Args[2:], os.Stdout)
	case "diff":
		var identical bool
		identical, err = runDiff(os.Args[2:], os.Stdout)
		if err == nil && !identical {
			os.Exit(1)
		}
	case "-h", "--help", "help":
		fmt.Println(usage)
		return
	default:
		fmt.Fprintf(os.Stderr, "dtntrace: unknown command %q\n%s\n", os.Args[1], usage)
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "dtntrace: %v\n", err)
		os.Exit(2)
	}
}

// foldFile replays one event log into a ledger.
func foldFile(path string) (*obs.Ledger, error) {
	f, err := obs.OpenLog(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	l, err := obs.FoldLog(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return l, nil
}

// onePath extracts the single positional trace argument.
func onePath(args []string) (string, error) {
	if len(args) != 1 {
		return "", fmt.Errorf("want exactly one trace file, got %d arguments", len(args))
	}
	return args[0], nil
}

// eachEvent streams a log through fn without materializing it.
func eachEvent(path string, fn func(obs.Event) error) error {
	f, err := obs.OpenLog(path)
	if err != nil {
		return err
	}
	defer f.Close()
	r := obs.NewLogReader(f)
	for {
		ev, err := r.Next()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		if err := fn(ev); err != nil {
			return err
		}
	}
}
