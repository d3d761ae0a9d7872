// Command dtnsim runs a single DTN simulation scenario and prints the
// headline metrics.
//
// Examples:
//
//	dtnsim                                   # Table II preset, SDSRP
//	dtnsim -scenario epfl -policy SprayAndWait-O
//	dtnsim -copies 64 -buffer 2.0 -gen 10,15 -seed 3
//	dtnsim -trace-dir /data/cabspottingdata  # replay real cabspotting files
//	dtnsim -intermeeting                     # traffic-free Fig. 3 measurement
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime/pprof"
	"strings"

	"sdsrp"
	"sdsrp/internal/config"
	"sdsrp/internal/trace"
	"sdsrp/internal/world"
)

func main() {
	var (
		scenario       = flag.String("scenario", "rwp", "preset: rwp (Table II) or epfl (Table III)")
		policy         = flag.String("policy", "SDSRP", "buffer policy: SprayAndWait, SprayAndWait-O, SprayAndWait-C, SDSRP, SDSRP-Taylor<k>, OracleUtility, Random, MOFO, LIFO")
		protocol       = flag.String("protocol", "spray-and-wait", "routing protocol: spray-and-wait, spray-and-wait-source, epidemic, direct, spray-and-focus")
		copies         = flag.Int("copies", 0, "initial copies L (0 = preset)")
		bufferMB       = flag.Float64("buffer", 0, "buffer size in MB (0 = preset)")
		gen            = flag.String("gen", "", "generation interval \"lo,hi\" seconds (empty = preset, \"off\" disables)")
		duration       = flag.Float64("duration", 0, "simulation seconds (0 = preset)")
		nodes          = flag.Int("nodes", 0, "node count (0 = preset)")
		seed           = flag.Uint64("seed", 1, "random seed")
		traceDir       = flag.String("trace-dir", "", "directory of cabspotting files (replaces synthetic mobility)")
		oneTrace       = flag.String("one-trace", "", "ONE external-movement file (replaces synthetic mobility)")
		contactTrace   = flag.String("contact-trace", "", "replay a recorded contact trace (\"a b start end\" lines; replaces mobility)")
		exportContacts = flag.String("export-contacts", "", "record the run's contacts and write them as a replayable trace")
		inter          = flag.Bool("intermeeting", false, "record intermeeting times (disables traffic, prints Fig. 3 stats)")
		ttl            = flag.Float64("ttl", 0, "message TTL seconds (0 = preset)")
		oracleRate     = flag.Float64("oracle-rate", 0, "fixed mean intermeeting time (0 = distributed estimator)")
		noDropList     = flag.Bool("no-droplist", false, "disable SDSRP's dropped-list gossip")
		acks           = flag.Bool("acks", false, "enable the ACK/immunization extension")
		energyCap      = flag.Float64("energy", 0, "battery capacity in joules (0 = unlimited; drains 0.5 J/s scanning, 15/10 J/s radio)")
		warmup         = flag.Float64("warmup", 0, "exclude messages created before this time from metrics")
		configIn       = flag.String("config", "", "load scenario from a JSON file (flags below still override)")
		configOut      = flag.String("save-config", "", "write the effective scenario as JSON and exit")
		eventsOut      = flag.String("events", "", "write the structured lifecycle event log (JSONL) to this path (.gz = gzip)")
		snapInterval   = flag.Float64("snapshot-interval", 0, "emit a snapshot event into the event log every N sim-seconds (0 = off; needs -events)")
		profileOut     = flag.String("profile", "", "write a CPU profile of the run to this path")
		cellSize       = flag.Float64("cell-size", 0, "scan grid cell edge in metres (0 = radio range; must be >= range)")
		maxEvents      = flag.Uint64("max-events", 0, "stop the run after this many engine events and report partial metrics (0 = unbounded)")
	)
	flag.Parse()

	var sc sdsrp.Scenario
	if *configIn != "" {
		var err error
		sc, err = config.Load(*configIn)
		if err != nil {
			fatal("%v", err)
		}
	} else {
		switch *scenario {
		case "rwp":
			sc = sdsrp.RandomWaypointScenario()
		case "epfl":
			sc = sdsrp.EPFLScenario()
		default:
			fatal("unknown scenario %q (want rwp or epfl)", *scenario)
		}
	}
	// With -config, flags only override when explicitly set on the command
	// line; otherwise their defaults apply on top of the chosen preset.
	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
	fromPreset := *configIn == ""
	if fromPreset || set["seed"] {
		sc.Seed = *seed
	}
	if fromPreset || set["policy"] {
		sc.PolicyName = *policy
	}
	if fromPreset || set["protocol"] {
		sc.ProtocolName = *protocol
	}
	if fromPreset || set["no-droplist"] {
		sc.DisableDropList = *noDropList
	}
	if fromPreset || set["oracle-rate"] {
		sc.OracleRateMean = *oracleRate
	}
	if *copies > 0 {
		sc.InitialCopies = *copies
	}
	if *bufferMB > 0 {
		sc.BufferBytes = int64(*bufferMB * float64(config.MB))
	}
	if *duration > 0 {
		sc.Duration = *duration
	}
	if *ttl > 0 {
		sc.TTL = *ttl
	}
	if *nodes > 0 {
		sc.Nodes = *nodes
	}
	if *traceDir != "" {
		sc.Mobility = sdsrp.Mobility{Kind: config.MobilityTraceDir, TraceDir: *traceDir}
	}
	if *oneTrace != "" {
		sc.Mobility = sdsrp.Mobility{Kind: config.MobilityONEFile, TraceFile: *oneTrace}
	}
	if *contactTrace != "" {
		sc.ContactTraceFile = *contactTrace
	}
	switch {
	case *gen == "off":
		sc.GenIntervalLo = 0
	case *gen != "":
		var lo, hi float64
		if _, err := fmt.Sscanf(strings.ReplaceAll(*gen, ",", " "), "%f %f", &lo, &hi); err != nil {
			fatal("bad -gen %q: want \"lo,hi\"", *gen)
		}
		sc.GenIntervalLo, sc.GenIntervalHi = lo, hi
	}
	if *inter {
		sc.GenIntervalLo = 0
		sc.RecordIntermeeting = true
	}
	if *acks {
		sc.UseAcks = true
	}
	if *warmup > 0 {
		sc.Warmup = *warmup
	}
	if *cellSize > 0 {
		sc.CellSize = *cellSize
	}
	if *energyCap > 0 {
		sc.Energy = config.Energy{Capacity: *energyCap, ScanPerSec: 0.5, TxPerSec: 15, RxPerSec: 10}
	}
	if *maxEvents > 0 {
		sc.MaxEvents = *maxEvents
	}
	if *configOut != "" {
		if err := config.Save(sc, *configOut); err != nil {
			fatal("%v", err)
		}
		fmt.Println("wrote", *configOut)
		return
	}

	var events io.WriteCloser
	var jsonl *sdsrp.JSONLTracer
	var recorder *trace.ContactRecorder
	var sinks []sdsrp.Tracer
	if *eventsOut != "" {
		var err error
		events, err = sdsrp.CreateEventLog(*eventsOut)
		if err != nil {
			fatal("%v", err)
		}
		jsonl = sdsrp.NewJSONLTracer(events)
		sinks = append(sinks, jsonl)
	}
	if *exportContacts != "" {
		recorder = trace.NewContactRecorder()
		sinks = append(sinks, recorder)
	}
	w, err := sdsrp.Build(sc, sdsrp.WithTracer(sdsrp.MultiTracer(sinks...)))
	if err != nil {
		fatal("%v", err)
	}
	if *snapInterval > 0 {
		if jsonl == nil {
			// The contact recorder alone would accept the snapshots and
			// drop them.
			fatal("-snapshot-interval needs -events")
		}
		if err := w.EnableSnapshots(*snapInterval); err != nil {
			fatal("%v", err)
		}
	}
	if *profileOut != "" {
		f, err := os.Create(*profileOut)
		if err != nil {
			fatal("%v", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal("%v", err)
		}
		defer func() {
			pprof.StopCPUProfile()
			if err := f.Close(); err != nil {
				fatal("%v", err)
			}
		}()
	}
	res, err := w.Run()
	var budget *world.BudgetError
	if errors.As(err, &budget) {
		// A budget stop is a deliberate, deterministic cutoff: report how
		// far the run got and print the (partial) metrics below.
		fmt.Printf("budget          exceeded: %d events dispatched (max %d), stopped at sim time %.1fs of %.0fs\n",
			budget.Events, budget.MaxEvents, budget.SimTime, sc.Duration)
	} else if err != nil {
		fatal("%v", err)
	}
	if jsonl != nil {
		if err := jsonl.Flush(); err != nil {
			fatal("%v", err)
		}
		if err := events.Close(); err != nil {
			fatal("%v", err)
		}
	}
	if *exportContacts != "" {
		f, err := os.Create(*exportContacts)
		if err != nil {
			fatal("%v", err)
		}
		if err := trace.WriteContacts(f, recorder.Contacts()); err != nil {
			f.Close()
			fatal("%v", err)
		}
		if err := f.Close(); err != nil {
			fatal("%v", err)
		}
	}

	fmt.Printf("scenario        %s (seed %d, %d nodes, %.0fs)\n", sc.Name, sc.Seed, res.Scenario.Nodes, sc.Duration)
	fmt.Printf("policy          %s over %s\n", sc.PolicyName, sc.ProtocolName)
	fmt.Printf("contacts        %d\n", res.Contacts)
	if sc.RecordIntermeeting {
		fmt.Printf("intermeeting    n=%d mean=%.1fs lambda=%.3g exp-fit-err=%.4f\n",
			res.IntermeetingN, res.MeanIntermeeting, 1/res.MeanIntermeeting, res.ExpFitError)
	}
	if res.Created > 0 {
		fmt.Printf("created         %d\n", res.Created)
		fmt.Printf("delivered       %d (ratio %.4f)\n", res.Delivered, res.DeliveryRatio)
		fmt.Printf("avg hopcounts   %.3f\n", res.AvgHops)
		fmt.Printf("overhead ratio  %.3f\n", res.OverheadRatio)
		fmt.Printf("latency         avg=%.1fs median=%.1fs p95=%.1fs\n",
			res.AvgLatency, res.MedianLatency, res.P95Latency)
		fmt.Printf("transfers       started=%d completed=%d aborted=%d refused=%d\n",
			res.Started, res.Forwards, res.Aborted, res.Refused)
		if res.Lost > 0 {
			fmt.Printf("faults          transfers lost=%d\n", res.Lost)
		}
		fmt.Printf("drops           policy=%d expired=%d acked=%d\n",
			res.PolicyDrops, res.ExpiredDrops, res.AckPurges)
	}
	if res.Energy.Enabled {
		fmt.Printf("energy          used=%.0fJ dead=%d meanLevel=%.2f firstDeath=%.0fs\n",
			res.Energy.TotalUsed, res.Energy.DeadNodes, res.Energy.MeanLevel, res.Energy.FirstDeath)
	}
	fmt.Printf("perf            %s\n", res.Perf)
	if res.Perf.ScanFallback != "" {
		// Stderr, not stdout: the summary above is parsed by dtntrace
		// stats -check and must stay planner-independent.
		fmt.Fprintf(os.Stderr, "dtnsim: scan planner fallback: %s\n", res.Perf.ScanFallback)
	}
	if *eventsOut != "" {
		fmt.Printf("events          wrote %s\n", *eventsOut)
	}
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "dtnsim: "+format+"\n", args...)
	os.Exit(1)
}
