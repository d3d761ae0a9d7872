package main

import (
	"flag"
	"fmt"
	"io"
	"strconv"
	"strings"

	"sdsrp/internal/msg"
	"sdsrp/internal/obs"
)

func runPaths(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("paths", flag.ContinueOnError)
	msgID := fs.Int("msg", -1, "restrict to one message id (-1 = all)")
	jsonl := fs.Bool("jsonl", false, "dump full ledger records as JSONL instead of text")
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
	var recs []*obs.MessageRecord
	if *msgID >= 0 {
		r := ledger.Record(msg.ID(*msgID))
		if r == nil {
			return fmt.Errorf("%s: no events for message %d", path, *msgID)
		}
		recs = []*obs.MessageRecord{r}
	} else {
		recs = ledger.Records()
	}
	if *jsonl {
		return obs.WriteRecords(out, recs)
	}
	for _, r := range recs {
		if _, err := fmt.Fprintln(out, formatRecord(r)); err != nil {
			return err
		}
	}
	return nil
}

// formatRecord renders one provenance record on a single grep-friendly
// line.
func formatRecord(r *obs.MessageRecord) string {
	var b strings.Builder
	fmt.Fprintf(&b, "msg %d %d->%d t=%s %s", r.ID, r.Source, r.Dest,
		trimFloat(r.Created), r.Fate)
	switch r.Fate {
	case obs.FateDelivered:
		fmt.Fprintf(&b, " at=%s latency=%ss hops=%d path %s",
			trimFloat(r.DeliveredAt), trimFloat(r.Latency), r.Hops, joinPath(r.Path))
	case obs.FateStranded:
		fmt.Fprintf(&b, " live=%d", r.LiveCopies)
	case obs.FateExpired, obs.FateDropped, obs.FateWiped:
		if n := len(r.Removals); n > 0 {
			last := r.Removals[n-1]
			fmt.Fprintf(&b, " last=%s@node%d t=%s", last.Cause, last.Node, trimFloat(last.T))
		}
	}
	fmt.Fprintf(&b, " forwards=%d drops=%d refused=%d", len(r.Forwards),
		removalCount(r, "policy"), r.Refused)
	if r.Aborted > 0 {
		fmt.Fprintf(&b, " aborted=%d", r.Aborted)
	}
	if r.Lost > 0 {
		fmt.Fprintf(&b, " lost=%d", r.Lost)
	}
	return b.String()
}

func removalCount(r *obs.MessageRecord, cause string) int {
	n := 0
	for _, rm := range r.Removals {
		if rm.Cause == cause {
			n++
		}
	}
	return n
}

func joinPath(path []int) string {
	parts := make([]string, len(path))
	for i, n := range path {
		parts[i] = strconv.Itoa(n)
	}
	return strings.Join(parts, "->")
}

// trimFloat formats a float compactly ('g', shortest round-trip), matching
// the trace encoding.
func trimFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}
