package main

import (
	"encoding/csv"
	"flag"
	"fmt"
	"io"
	"strconv"

	"sdsrp/internal/obs"
)

// runSeries extracts the snapshot time-series as CSV: one row per snapshot
// event with aggregate occupancy columns, then the run's counters at that
// instant, tallied from the lifecycle events before the snapshot (created,
// delivered, their ratio, completed transfers counting deliveries, policy
// drops; the live collector's arithmetic for warmup-free runs) and the
// snapshot's mean buffer fill, optionally widened to one used_<i> column
// per node for per-host congestion plots.
func runSeries(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("series", flag.ContinueOnError)
	perNode := fs.Bool("per-node", false, "append one used_<i> column per node")
	if err := fs.Parse(args); err != nil {
		return err
	}
	path, err := onePath(fs.Args())
	if err != nil {
		return err
	}
	cw := csv.NewWriter(out)
	wroteHeader := false
	rows := 0
	var created, delivered, forwards, drops int
	err = eachEvent(path, func(ev obs.Event) error {
		switch ev.Type {
		case obs.MessageCreated:
			created++
		case obs.MessageDelivered:
			delivered++
			forwards++
		case obs.MessageForwarded:
			forwards++
		case obs.MessageDropped:
			drops++
		}
		if ev.Type != obs.Snapshot {
			return nil
		}
		if !wroteHeader {
			header := []string{"t", "live_msgs", "live_copies", "contacts",
				"queue", "used_total", "used_max", "created", "delivered",
				"delivery_ratio", "forwards", "policy_drops", "fill"}
			if *perNode {
				for i := range ev.Used {
					header = append(header, "used_"+strconv.Itoa(i))
				}
			}
			if err := cw.Write(header); err != nil {
				return err
			}
			wroteHeader = true
		}
		var total, max int64
		for _, u := range ev.Used {
			total += u
			if u > max {
				max = u
			}
		}
		var ratio float64
		if created > 0 {
			ratio = float64(delivered) / float64(created)
		}
		rec := []string{
			strconv.FormatFloat(ev.T, 'g', -1, 64),
			strconv.Itoa(ev.LiveMsgs),
			strconv.Itoa(ev.LiveCopies),
			strconv.Itoa(ev.Contacts),
			strconv.Itoa(ev.Queue),
			strconv.FormatInt(total, 10),
			strconv.FormatInt(max, 10),
			strconv.Itoa(created),
			strconv.Itoa(delivered),
			strconv.FormatFloat(ratio, 'g', -1, 64),
			strconv.Itoa(forwards),
			strconv.Itoa(drops),
			strconv.FormatFloat(ev.Fill, 'g', -1, 64),
		}
		if *perNode {
			for _, u := range ev.Used {
				rec = append(rec, strconv.FormatInt(u, 10))
			}
		}
		rows++
		return cw.Write(rec)
	})
	if err != nil {
		return err
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		return err
	}
	if rows == 0 {
		return fmt.Errorf("%s: no snapshot events (run dtnsim with -snapshot-interval)", path)
	}
	return nil
}
