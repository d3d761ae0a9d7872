package main

import (
	"fmt"
	"io"
	"runtime"
	"time"

	"sdsrp/internal/config"
	"sdsrp/internal/core"
	"sdsrp/internal/experiment"
	"sdsrp/internal/msg"
	"sdsrp/internal/obs"
	"sdsrp/internal/routing"
	"sdsrp/internal/world"
)

// capture is the benchmark-side tracer: it keeps every event for the
// gossip replay and the JSONL re-encoding, and counts events by type.
type capture struct {
	events []obs.Event
	counts [obs.Snapshot + 1]int
}

func (c *capture) Emit(e obs.Event) {
	c.events = append(c.events, e)
	c.counts[e.Type]++
}

// layerStats sums the traced run's layer measurements over worlds. Times
// named *Time are busy time inside the calls the benchmark wraps.
type layerStats struct {
	nodes                          int
	buildTime, runTime, tracedTime time.Duration // plain build, plain run, traced run
	scanTime                       time.Duration // scan-twin run

	pairsChecked, pairsSkipped, wakeups uint64
	contacts, fallbackWorlds            int
	events                              uint64
	peakQueue                           int

	gossip gossipStats
	score  scoreStats

	counts    [obs.Snapshot + 1]int
	obsEvents int
	jsonlTime time.Duration

	expRuns     int
	expOverhead time.Duration

	allocBytes, allocs uint64
	gcCycles           uint32
}

// traced runs wl once per world in four variants and returns the per-layer
// metrics. A world fails when a variant errors or a self-check fails: the
// traced and policy-wrapped runs must reproduce the plain run's
// fingerprint, the scan twin its contact count, and the gossip replay its
// live drop tables.
func traced(wl workload, seed uint64, scale float64, log *spanLog) ([]metric, *outcome) {
	root := log.begin("workload", -1)
	defer log.end(root)
	var ls layerStats
	var scs []config.Scenario
	var want []string
	if wl.sweep != "" {
		sp := log.begin("experiment", root)
		var runWall time.Duration
		results, err := wl.runSweep(seed, scale, func(p experiment.ProgressInfo) { runWall += p.LastRunWall })
		wall := log.end(sp)
		if err != nil {
			o := newOutcome(1)
			o.fail(-1, "sweep: %v", err)
			return nil, o
		}
		ls.expRuns = len(results)
		ls.expOverhead = wall - runWall
		for _, r := range results {
			scs = append(scs, r.Scenario)
			want = append(want, fingerprint(r))
		}
	} else {
		scs = wl.scenarios(seed, scale)
	}
	o := newOutcome(len(scs))
	fps := make([]string, len(scs))
	for k, sc := range scs {
		fp, err := ls.world(sc, log, root)
		switch {
		case err != nil:
			o.fail(k, "world %d: %v", k+1, err)
		case want != nil && fp != want[k]:
			o.fail(k, "world %d: rebuilt fingerprint %s differs from the sweep's %s", k+1, fp, want[k])
		}
		fps[k] = fp
	}
	o.checkPins(wl, fps, seed, scale)
	return ls.metrics(), o
}

// buildRun builds sc under a "build" span and runs it under a span named
// run, both children of parent.
func buildRun(log *spanLog, parent int, run string, sc config.Scenario, opts ...world.BuildOption) (w *world.World, res world.Result, build, elapsed time.Duration, err error) {
	sp := log.begin("build", parent)
	w, err = world.Build(sc, opts...)
	build = log.end(sp)
	if err != nil {
		return nil, res, build, 0, fmt.Errorf("build: %w", err)
	}
	sp = log.begin(run, parent)
	res, err = w.Run()
	elapsed = log.end(sp)
	if err != nil {
		return nil, res, build, elapsed, fmt.Errorf("%s: %w", run, err)
	}
	return w, res, build, elapsed, nil
}

// world measures one world and returns its plain-run fingerprint.
func (ls *layerStats) world(sc config.Scenario, log *spanLog, parent int) (string, error) {
	ws := log.begin("world", parent)
	defer log.end(ws)

	// Plain run: the untraced reference, with allocation deltas.
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	w, res, build, run, err := buildRun(log, ws, "run", sc)
	runtime.ReadMemStats(&after)
	if err != nil {
		return "", err
	}
	fp := fingerprint(res)
	p := res.Perf
	ls.nodes += len(w.Hosts)
	ls.buildTime += build
	ls.runTime += run
	ls.pairsChecked += p.PairsChecked
	ls.pairsSkipped += p.PairsSkipped
	ls.wakeups += p.Wakeups
	ls.contacts += res.Contacts
	if p.ScanFallback != "" {
		ls.fallbackWorlds++
	}
	ls.events += p.Events
	ls.peakQueue = max(ls.peakQueue, p.PeakQueue)
	ls.allocBytes += after.TotalAlloc - before.TotalAlloc
	ls.allocs += after.Mallocs - before.Mallocs
	ls.gcCycles += after.NumGC - before.NumGC

	// Traced run: event counts and the stream for the gossip replay.
	tr := &capture{}
	tw, tres, _, tracedRun, err := buildRun(log, ws, "run.traced", sc, world.WithTracer(tr))
	if err != nil {
		return fp, err
	}
	if got := fingerprint(tres); got != fp {
		return fp, fmt.Errorf("traced run fingerprint %s differs from the plain run's %s", got, fp)
	}
	ls.tracedTime += tracedRun
	ls.obsEvents += len(tr.events)
	for t, n := range tr.counts {
		ls.counts[t] += n
	}
	if tw.Hosts[0].DropTable() != nil {
		sp := log.begin("replay.gossip", ws)
		g, err := checkGossip(tr.events, tw.Hosts)
		log.end(sp)
		if err != nil {
			return fp, err
		}
		ls.gossip.add(g)
	}
	sp := log.begin("encode.jsonl", ws)
	sink := obs.NewJSONL(io.Discard)
	for _, e := range tr.events {
		sink.Emit(e)
	}
	err = sink.Flush()
	ls.jsonlTime += log.end(sp)
	if err != nil {
		return fp, fmt.Errorf("jsonl: %w", err)
	}

	// Policy-wrapped run: the same world with every score timed.
	psc := sc
	if psc.PolicyName, err = registerTimed(sc.PolicyName); err != nil {
		return fp, err
	}
	scores = scoreStats{}
	_, pres, _, _, err := buildRun(log, ws, "run.policy", psc)
	if err != nil {
		return fp, err
	}
	if got := fingerprint(pres); got != fp {
		return fp, fmt.Errorf("policy-wrapped run fingerprint %s differs from the plain run's %s", got, fp)
	}
	ls.score.sends += scores.sends
	ls.score.drops += scores.drops
	ls.score.time += scores.time

	// Scan twin: the same mobility without traffic.
	ssc := sc
	ssc.GenIntervalLo = 0
	_, sres, _, scan, err := buildRun(log, ws, "run.scan_twin", ssc)
	if err != nil {
		return fp, err
	}
	if sres.Contacts != res.Contacts {
		return fp, fmt.Errorf("scan twin saw %d contacts, the full run %d", sres.Contacts, res.Contacts)
	}
	ls.scanTime += scan
	return fp, nil
}

// checkGossip replays a run's events into fresh drop tables and requires
// them to equal the hosts' live tables at the end of the run.
func checkGossip(events []obs.Event, hosts []*routing.Host) (gossipStats, error) {
	replayed, g := replayGossip(events, len(hosts))
	live := make([]*core.DropTable, len(hosts))
	for i, h := range hosts {
		live[i] = h.DropTable()
	}
	var maxID msg.ID
	for _, e := range events {
		if e.Type == obs.MessageCreated {
			maxID = max(maxID, e.Msg)
		}
	}
	var err error
	if g.entries, err = compareTables(replayed, live, maxID); err != nil {
		return g, fmt.Errorf("gossip replay: %w", err)
	}
	return g, nil
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func (ls *layerStats) metrics() []metric {
	run := ls.runTime.Seconds()
	share := func(d time.Duration) float64 { return ratio(d.Seconds(), run) }
	g, s, c := ls.gossip, ls.score, ls.counts
	committed := c[obs.MessageForwarded] + c[obs.MessageDelivered]
	return []metric{
		{"setup.nodes", float64(ls.nodes), "count"},
		{"setup.us_per_node", ratio(ls.buildTime.Seconds()*1e6, float64(ls.nodes)), "us"},

		{"scan.run_s", ls.scanTime.Seconds(), "s"},
		{"scan.share", share(ls.scanTime), "ratio"},
		{"scan.pairs_checked", float64(ls.pairsChecked), "count"},
		{"scan.pairs_skipped", float64(ls.pairsSkipped), "count"},
		{"scan.wakeups", float64(ls.wakeups), "count"},
		{"scan.contacts", float64(ls.contacts), "count"},
		{"scan.hit_ratio", ratio(float64(ls.contacts), float64(ls.pairsChecked)), "ratio"},
		{"scan.fallback_worlds", float64(ls.fallbackWorlds), "count"},

		{"gossip.merge_s", g.mergeTime.Seconds(), "s"},
		{"gossip.merges", float64(g.merges), "count"},
		{"gossip.merge_us", ratio(g.mergeTime.Seconds()*1e6, float64(g.merges)), "us"},
		{"gossip.record_s", g.recordTime.Seconds(), "s"},
		{"gossip.records", float64(g.records), "count"},
		{"gossip.forget_s", g.forgetTime.Seconds(), "s"},
		{"gossip.forgets", float64(g.forgets), "count"},
		{"gossip.entries", float64(g.entries), "count"},
		{"gossip.share", share(g.total()), "ratio"},

		{"policy.send_scores", float64(s.sends), "count"},
		{"policy.drop_scores", float64(s.drops), "count"},
		{"policy.score_s", s.time.Seconds(), "s"},
		{"policy.score_ns", ratio(s.time.Seconds()*1e9, float64(s.sends+s.drops)), "ns"},
		{"policy.share", share(s.time), "ratio"},

		{"transfer.started", float64(c[obs.TransferStart]), "count"},
		{"transfer.committed", float64(committed), "count"},
		{"transfer.aborted", float64(c[obs.TransferAbort]), "count"},
		{"transfer.refused", float64(c[obs.MessageRefused]), "count"},
		{"transfer.lost", float64(c[obs.TransferLost]), "count"},
		{"transfer.delivered", float64(c[obs.MessageDelivered]), "count"},
		{"transfer.dropped", float64(c[obs.MessageDropped]), "count"},
		{"transfer.commit_ratio", ratio(float64(committed), float64(c[obs.TransferStart])), "ratio"},

		{"engine.events", float64(ls.events), "count"},
		{"engine.peak_queue", float64(ls.peakQueue), "count"},
		{"engine.ns_per_event", ratio(run*1e9, float64(ls.events)), "ns"},

		{"obs.events", float64(ls.obsEvents), "count"},
		{"obs.overhead_share", ratio(ls.tracedTime.Seconds(), run) - 1, "ratio"},
		{"obs.jsonl_ns_per_event", ratio(ls.jsonlTime.Seconds()*1e9, float64(ls.obsEvents)), "ns"},

		{"experiment.runs", float64(ls.expRuns), "count"},
		{"experiment.overhead_s", ls.expOverhead.Seconds(), "s"},

		{"alloc.mb", float64(ls.allocBytes) / 1e6, "MB"},
		{"alloc.count", float64(ls.allocs), "count"},
		{"alloc.gc_cycles", float64(ls.gcCycles), "count"},

		{"other.share", 1 - share(ls.scanTime) - share(g.total()) - share(s.time), "ratio"},
	}
}
