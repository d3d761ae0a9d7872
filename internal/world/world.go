// Package world assembles a full simulation from a config.Scenario: engine,
// mobility, hosts, radio, traffic, and TTL sweeps — the equivalent of the
// ONE simulator's scenario loader.
//
//lint:shard-safe run state is per-World; the traffic substream touchpoint is annotated where it is scheduled
package world

import (
	"fmt"
	"os"

	"sdsrp/internal/config"
	"sdsrp/internal/core"
	"sdsrp/internal/fault"
	"sdsrp/internal/geo"
	"sdsrp/internal/graph"
	"sdsrp/internal/mobility"
	"sdsrp/internal/msg"
	"sdsrp/internal/network"
	"sdsrp/internal/obs"
	"sdsrp/internal/policy"
	"sdsrp/internal/rng"
	"sdsrp/internal/routing"
	"sdsrp/internal/sim"
	"sdsrp/internal/stats"
	"sdsrp/internal/trace"
)

// World is one assembled simulation run.
type World struct {
	Scenario     config.Scenario
	Engine       *sim.Engine
	Hosts        []*routing.Host
	Manager      *network.Manager
	Collector    *stats.Collector
	Intermeeting *stats.Intermeeting
	Tracker      *routing.Tracker

	started   bool
	tracer    obs.Tracer        // nil when tracing is off
	scheduled []network.Contact // non-nil for contact-trace-driven runs
}

// BuildOption customizes world assembly beyond what a config.Scenario
// (a serializable artifact) can describe — runtime wiring like tracers.
type BuildOption func(*buildOptions)

type buildOptions struct {
	tracer         obs.Tracer
	record, replay *network.ContactPlan
	planner        network.Planner
}

// WithTracer routes every lifecycle event of the run (message, contact,
// transfer, eviction) to tr. A nil tr keeps tracing disabled.
func WithTracer(tr obs.Tracer) BuildOption {
	return func(o *buildOptions) { o.tracer = tr }
}

// RecordContactPlan records every link transition of the run's contact
// scan into p, which must be empty. Once Run returns without error, p holds
// the whole schedule, and ReplayContactPlan may hand it to runs whose
// contacts are provably the same. Scenarios whose links depend on more than
// motion (a contact trace, a battery, churn or link flapping) fail to
// build or start with a plan.
func RecordContactPlan(p *network.ContactPlan) BuildOption {
	return func(o *buildOptions) { o.record = p }
}

// ReplayContactPlan replaces the run's contact scan with p, a whole
// recording of a run that differs from this one in traffic-only fields
// (buffers, policy, protocol, traffic, transfer faults). Every event, trace
// byte and result is then the same as a scanning run's; only the scan
// counters read zero, and Result.Perf.Replayed says why.
func ReplayContactPlan(p *network.ContactPlan) BuildOption {
	return func(o *buildOptions) { o.replay = p }
}

// withPlanner forces the run's contact-scan planner, for the differential
// tests and scan benchmarks; every other world lets the radio layer pick by
// fleet size.
func withPlanner(p network.Planner) BuildOption {
	return func(o *buildOptions) { o.planner = p }
}

// Result is the digest of a finished run.
type Result struct {
	stats.Summary
	Scenario config.Scenario
	Contacts int
	// MeanContactDuration is the average length of finished contacts in
	// seconds.
	MeanContactDuration float64
	// Energy summarizes the battery model (Enabled false when off).
	Energy network.EnergyReport
	// MeanIntermeeting and ExpFitError are populated only when the
	// scenario records intermeeting samples (Fig. 3 runs).
	MeanIntermeeting float64
	ExpFitError      float64
	IntermeetingN    int
	// Perf is the engine-level performance digest: events dispatched,
	// events/sec, peak queue depth, wall-clock, and the contact scanner's
	// pairs-checked/skipped/wakeups counters. The planner counters
	// describe how the scan did its work and legitimately differ across
	// planners; everything the simulation observes (Events, PeakQueue,
	// the trace, the Summary) is identical.
	Perf obs.RunStats
}

// Build validates the scenario and assembles a world. It does not start the
// clock; call Run.
func Build(sc config.Scenario, opts ...BuildOption) (*World, error) {
	var bo buildOptions
	for _, o := range opts {
		o(&bo)
	}
	if err := sc.Validate(); err != nil {
		return nil, fmt.Errorf("world: invalid scenario %q: %w", sc.Name, err)
	}
	root := rng.New(sc.Seed)
	eng := sim.NewEngine()
	collector := stats.NewCollector()
	collector.WarmupUntil = sc.Warmup
	tracker := routing.NewTracker()

	var scheduled []network.Contact
	var models []mobility.Model
	var buffers []int64
	var ranges []float64
	var area geo.Rect
	var nodes int
	var err error
	if sc.ContactTraceFile != "" {
		scheduled, models, buffers, ranges, area, nodes, err = buildScheduled(sc)
	} else {
		models, buffers, ranges, area, nodes, err = buildPopulation(sc, root)
	}
	if err != nil {
		return nil, err
	}
	sc.Nodes = nodes
	sc.Area = area

	if _, ok := routing.ProtocolByName(sc.ProtocolName); !ok {
		return nil, fmt.Errorf("world: unknown protocol %q", sc.ProtocolName)
	}

	// The fault injector draws only from its own pure split of the root
	// stream, so a fault-free scenario (nil injector) is byte-identical to
	// runs built before the fault layer existed.
	inj := fault.New(sc.Faults, root.Split("fault"), nodes, churnEligible(sc, nodes))

	useDrops := policyUsesDropList(sc.PolicyName) && !sc.DisableDropList
	hosts := make([]*routing.Host, nodes)
	for i := 0; i < nodes; i++ {
		pol, perr := policy.ByName(sc.PolicyName, root.SplitIndex("policy", i))
		if perr != nil {
			return nil, fmt.Errorf("world: %w", perr)
		}
		var rate core.RateSource
		switch {
		case sc.OracleRateMean > 0:
			rate = core.FixedRate{Mean: sc.OracleRateMean}
		case sc.GapLambdaEstimator:
			rate = core.NewLambdaEstimator(sc.PriorMeanIntermeeting, sc.PriorWeight)
		default:
			rate = core.NewCensusEstimator(sc.PriorMeanIntermeeting, sc.PriorWeight, nodes)
		}
		// Stateful protocols carry per-node tables: one instance per host.
		proto, _ := routing.ProtocolByName(sc.ProtocolName)
		hosts[i] = routing.NewHost(routing.HostConfig{
			ID:                i,
			Nodes:             nodes,
			Buffer:            buffers[i],
			Policy:            pol,
			Proto:             proto,
			Rate:              rate,
			UseDropList:       useDrops,
			UseAcks:           sc.UseAcks,
			PreflightEviction: sc.PreflightEviction,
			Clock:             eng.Now,
			Collector:         collector,
			Tracker:           tracker,
			Oracle:            tracker,
			Tracer:            bo.tracer,
			Role:              inj.Role(i),
		})
	}

	var inter *stats.Intermeeting
	if sc.RecordIntermeeting {
		inter = &stats.Intermeeting{}
	}
	mgr, err := network.NewManager(eng, network.Config{
		Area:         area,
		Range:        sc.Range,
		Bandwidth:    sc.Bandwidth,
		ScanInterval: sc.ScanInterval,
		Ranges:       ranges,
		Planner:      bo.planner,
		CellSize:     sc.CellSize,
		Tracer:       bo.tracer,
		Faults:       inj,
		RecordPlan:   bo.record,
		ReplayPlan:   bo.replay,
		Energy: network.EnergyConfig{
			Capacity:   sc.Energy.Capacity,
			ScanPerSec: sc.Energy.ScanPerSec,
			TxPerSec:   sc.Energy.TxPerSec,
			RxPerSec:   sc.Energy.RxPerSec,
		},
	}, hosts, models, collector, inter)
	if err != nil {
		return nil, fmt.Errorf("world: %w", err)
	}

	w := &World{
		scheduled:    scheduled,
		tracer:       bo.tracer,
		Scenario:     sc,
		Engine:       eng,
		Hosts:        hosts,
		Manager:      mgr,
		Collector:    collector,
		Intermeeting: inter,
		Tracker:      tracker,
	}
	w.scheduleTraffic(root.Split("traffic"))
	eng.Every(sc.ExpiryInterval, func(now float64) {
		for _, h := range hosts {
			h.ExpireMessages(now)
		}
	})
	return w, nil
}

// policyUsesDropList reports whether the named policy relies on the Fig. 5
// dropped-list machinery (SDSRP and its Taylor variants).
func policyUsesDropList(name string) bool {
	return (len(name) >= 5 && name[:5] == "SDSRP") || name == "Knapsack"
}

// churnEligible marks the nodes belonging to the churn-restricted groups.
// Node ids are assigned group by group in declaration order (buildGroups),
// so membership follows the same walk. Returns nil when churn is
// unrestricted (every node may churn).
func churnEligible(sc config.Scenario, nodes int) []bool {
	if len(sc.Faults.Churn.Groups) == 0 {
		return nil
	}
	named := make(map[string]bool, len(sc.Faults.Churn.Groups))
	for _, g := range sc.Faults.Churn.Groups {
		named[g] = true
	}
	eligible := make([]bool, nodes)
	i := 0
	for _, g := range sc.Groups {
		for k := 0; k < g.Count && i < nodes; k++ {
			eligible[i] = named[g.Name]
			i++
		}
	}
	return eligible
}

// buildScheduled loads a contact trace and fabricates the static population
// that replays it (positions are irrelevant in scheduled mode).
func buildScheduled(sc config.Scenario) ([]network.Contact, []mobility.Model, []int64, []float64, geo.Rect, int, error) {
	f, err := os.Open(sc.ContactTraceFile)
	if err != nil {
		return nil, nil, nil, nil, geo.Rect{}, 0, fmt.Errorf("world: %w", err)
	}
	defer f.Close()
	raw, err := trace.ParseContacts(f)
	if err != nil {
		return nil, nil, nil, nil, geo.Rect{}, 0, fmt.Errorf("world: %w", err)
	}
	nodes := trace.MaxNode(raw) + 1
	if sc.Nodes > nodes {
		nodes = sc.Nodes
	}
	contacts := make([]network.Contact, len(raw))
	for i, c := range raw {
		contacts[i] = network.Contact{A: c.A, B: c.B, Start: c.Start, End: c.End}
	}
	// Validate now so replay at Run time cannot fail (Run treats a
	// StartScheduled error as a programming error).
	if err := network.ValidateContacts(contacts, nodes); err != nil {
		return nil, nil, nil, nil, geo.Rect{}, 0, fmt.Errorf("world: %s: %w", sc.ContactTraceFile, err)
	}
	models := make([]mobility.Model, nodes)
	buffers := make([]int64, nodes)
	for i := range models {
		models[i] = mobility.Static{}
		buffers[i] = sc.BufferBytes
	}
	return contacts, models, buffers, nil, geo.NewRect(1, 1), nodes, nil
}

// buildPopulation resolves the scenario into per-node mobility models and
// buffer capacities, handling both homogeneous scenarios and node groups.
func buildPopulation(sc config.Scenario, root *rng.Stream) ([]mobility.Model, []int64, []float64, geo.Rect, int, error) {
	if len(sc.Groups) > 0 {
		return buildGroups(sc, root)
	}
	models, area, nodes, err := buildMobility(sc, root)
	if err != nil {
		return nil, nil, nil, geo.Rect{}, 0, err
	}
	buffers := make([]int64, nodes)
	for i := range buffers {
		buffers[i] = sc.BufferBytes
	}
	return models, buffers, nil, area, nodes, nil
}

// buildGroups assembles a heterogeneous population. All groups share the
// scenario area; node ids are assigned group by group in declaration order.
func buildGroups(sc config.Scenario, root *rng.Stream) ([]mobility.Model, []int64, []float64, geo.Rect, int, error) {
	mroot := root.Split("mobility")
	var models []mobility.Model
	var buffers []int64
	var ranges []float64
	for gi, g := range sc.Groups {
		buf := g.BufferBytes
		if buf <= 0 {
			buf = sc.BufferBytes
		}
		radioRange := g.Range
		if radioRange <= 0 {
			radioRange = sc.Range
		}
		for k := 0; k < g.Count; k++ {
			i := len(models)
			stream := mroot.SplitIndex("node", i)
			var m mobility.Model
			switch g.Mobility.Kind {
			case config.MobilityRWP:
				m = mobility.NewRandomWaypoint(sc.Area,
					g.Mobility.SpeedLo, g.Mobility.SpeedHi,
					g.Mobility.PauseLo, g.Mobility.PauseHi, stream)
			case config.MobilityRandomWalk:
				m = mobility.NewRandomWalk(sc.Area,
					g.Mobility.SpeedLo, g.Mobility.SpeedHi,
					g.Mobility.EpochDist, stream)
			case config.MobilityRandomDirection:
				m = mobility.NewRandomDirection(sc.Area,
					g.Mobility.SpeedLo, g.Mobility.SpeedHi,
					g.Mobility.PauseLo, g.Mobility.PauseHi, stream)
			case config.MobilityStatic:
				m = mobility.Static{P: geo.Point{
					X: stream.Uniform(sc.Area.Min.X, sc.Area.Max.X),
					Y: stream.Uniform(sc.Area.Min.Y, sc.Area.Max.Y),
				}}
			default:
				return nil, nil, nil, geo.Rect{}, 0, fmt.Errorf("world: group %d: unsupported mobility %q", gi, g.Mobility.Kind)
			}
			models = append(models, m)
			buffers = append(buffers, buf)
			ranges = append(ranges, radioRange)
		}
	}
	return models, buffers, ranges, sc.Area, len(models), nil
}

func buildMobility(sc config.Scenario, root *rng.Stream) ([]mobility.Model, geo.Rect, int, error) {
	mroot := root.Split("mobility")
	switch sc.Mobility.Kind {
	case config.MobilityRWP:
		models := make([]mobility.Model, sc.Nodes)
		for i := range models {
			models[i] = mobility.NewRandomWaypoint(sc.Area,
				sc.Mobility.SpeedLo, sc.Mobility.SpeedHi,
				sc.Mobility.PauseLo, sc.Mobility.PauseHi,
				mroot.SplitIndex("node", i))
		}
		return models, sc.Area, sc.Nodes, nil
	case config.MobilityRandomWalk:
		models := make([]mobility.Model, sc.Nodes)
		for i := range models {
			models[i] = mobility.NewRandomWalk(sc.Area,
				sc.Mobility.SpeedLo, sc.Mobility.SpeedHi,
				sc.Mobility.EpochDist, mroot.SplitIndex("node", i))
		}
		return models, sc.Area, sc.Nodes, nil
	case config.MobilityRandomDirection:
		models := make([]mobility.Model, sc.Nodes)
		for i := range models {
			models[i] = mobility.NewRandomDirection(sc.Area,
				sc.Mobility.SpeedLo, sc.Mobility.SpeedHi,
				sc.Mobility.PauseLo, sc.Mobility.PauseHi,
				mroot.SplitIndex("node", i))
		}
		return models, sc.Area, sc.Nodes, nil
	case config.MobilityTaxi:
		fleet := trace.Synthesize(trace.SynthesizeConfig{
			Taxi:           sc.Mobility.Taxi,
			Nodes:          sc.Nodes,
			Duration:       sc.Duration,
			SampleInterval: sc.Mobility.SampleInterval,
			Seed:           sc.Seed,
		})
		models, err := fleet.Models()
		if err != nil {
			return nil, geo.Rect{}, 0, fmt.Errorf("world: %w", err)
		}
		return models, fleet.Area, fleet.Nodes(), nil
	case config.MobilityTraceDir:
		fleet, err := trace.LoadDir(sc.Mobility.TraceDir, trace.SanFrancisco, sc.Range, sc.Nodes)
		if err != nil {
			return nil, geo.Rect{}, 0, fmt.Errorf("world: %w", err)
		}
		models, err := fleet.Models()
		if err != nil {
			return nil, geo.Rect{}, 0, fmt.Errorf("world: %w", err)
		}
		return models, fleet.Area, fleet.Nodes(), nil
	case config.MobilityMapGrid, config.MobilityMapFile:
		var g *graph.Graph
		var err error
		if sc.Mobility.Kind == config.MobilityMapGrid {
			g, err = graph.GridCity(sc.Mobility.MapCols, sc.Mobility.MapRows,
				sc.Mobility.MapSpacing, sc.Mobility.MapDropProb, mroot.Split("map"))
		} else {
			snap := sc.Mobility.MapSnap
			if snap <= 0 {
				snap = 1
			}
			var f *os.File
			f, err = os.Open(sc.Mobility.MapFile)
			if err != nil {
				return nil, geo.Rect{}, 0, fmt.Errorf("world: %w", err)
			}
			g, err = graph.ParseEdgeList(f, snap)
			f.Close()
		}
		if err != nil {
			return nil, geo.Rect{}, 0, fmt.Errorf("world: %w", err)
		}
		models := make([]mobility.Model, sc.Nodes)
		for i := range models {
			m, merr := mobility.NewMapRoute(g,
				sc.Mobility.SpeedLo, sc.Mobility.SpeedHi,
				sc.Mobility.PauseLo, sc.Mobility.PauseHi,
				mroot.SplitIndex("node", i))
			if merr != nil {
				return nil, geo.Rect{}, 0, fmt.Errorf("world: %w", merr)
			}
			models[i] = m
		}
		// Pad the radio area slightly so border vertices sit inside it.
		area := g.Bounds()
		area.Max.X += sc.Range
		area.Max.Y += sc.Range
		area.Min.X -= sc.Range
		area.Min.Y -= sc.Range
		return models, area, sc.Nodes, nil
	case config.MobilityONEFile:
		f, err := os.Open(sc.Mobility.TraceFile)
		if err != nil {
			return nil, geo.Rect{}, 0, fmt.Errorf("world: %w", err)
		}
		defer f.Close()
		fleet, err := trace.ParseONE(f)
		if err != nil {
			return nil, geo.Rect{}, 0, fmt.Errorf("world: %w", err)
		}
		models, err := fleet.Models()
		if err != nil {
			return nil, geo.Rect{}, 0, fmt.Errorf("world: %w", err)
		}
		return models, fleet.Area, fleet.Nodes(), nil
	default:
		return nil, geo.Rect{}, 0, fmt.Errorf("world: unknown mobility kind %q", sc.Mobility.Kind)
	}
}

// scheduleTraffic installs the network-wide message generator: one message
// every Uniform[lo,hi] seconds between a uniformly chosen (src ≠ dst) pair.
func (w *World) scheduleTraffic(s *rng.Stream) {
	sc := w.Scenario
	if sc.GenIntervalLo <= 0 {
		return
	}
	var nextID msg.ID
	var schedule func(now float64)
	schedule = func(now float64) {
		delay := s.Uniform(sc.GenIntervalLo, sc.GenIntervalHi)
		// The traffic substream deliberately rides inside the scheduled
		// closure: the generator is the world's own event chain, so every
		// draw happens at a single global (time, seq) point in the stream.
		//lint:invariant traffic substream is world-owned; draws occur in global event order at scheduling points, so no subsystem can observe a different sequence
		w.Engine.At(now+delay, func(at float64) {
			nextID++
			src := s.IntN(sc.Nodes)
			dst := s.IntN(sc.Nodes - 1)
			if dst >= src {
				dst++
			}
			size := sc.MessageSize
			if sc.MessageSizeHi > sc.MessageSize {
				size = sc.MessageSize + int64(s.Float64()*float64(sc.MessageSizeHi-sc.MessageSize))
			}
			m := &msg.Message{
				ID:            nextID,
				Source:        src,
				Dest:          dst,
				Size:          size,
				Created:       at,
				TTL:           sc.TTL,
				InitialCopies: sc.InitialCopies,
			}
			if w.Hosts[src].Originate(m, at) {
				w.Manager.Kick(src, at)
			}
			schedule(at)
		})
	}
	schedule(0)
}

// Run executes the scenario to its horizon and returns the result digest.
// Failure paths: a contact-trace-driven run whose schedule fails to install
// (zero Result), a Scenario.MaxEvents budget stop (*BudgetError), and a
// wall-clock watchdog stop (*TimeoutError) when a deadline was armed on the
// engine. Budget and timeout stops return the partial Result alongside the
// error so callers can report how far the run got.
func (w *World) Run() (Result, error) {
	if !w.started {
		if w.Scenario.MaxEvents > 0 {
			w.Engine.SetMaxEvents(w.Scenario.MaxEvents)
		}
		if w.scheduled != nil {
			if err := w.Manager.StartScheduled(w.scheduled); err != nil {
				return Result{}, fmt.Errorf("world: starting scheduled contacts: %w", err)
			}
		} else {
			w.Manager.Start()
		}
		w.started = true
	}
	w.Engine.Run(w.Scenario.Duration)
	if w.Engine.BudgetExceeded() {
		return w.Result(), &BudgetError{
			Events:    w.Engine.Processed(),
			MaxEvents: w.Scenario.MaxEvents,
			SimTime:   w.Engine.Now(),
		}
	}
	if w.Engine.DeadlineExceeded() {
		return w.Result(), &TimeoutError{
			Events:  w.Engine.Processed(),
			SimTime: w.Engine.Now(),
		}
	}
	return w.Result(), nil
}

// RunStats returns the engine-level performance digest of the run so far.
func (w *World) RunStats() obs.RunStats {
	checked, skipped, wakeups := w.Manager.ScanStats()
	return obs.RunStats{
		SimSeconds:   w.Engine.Now(),
		Events:       w.Engine.Processed(),
		PeakQueue:    w.Engine.PeakQueue(),
		WallSeconds:  w.Engine.Wall().Seconds(),
		PairsChecked: checked,
		PairsSkipped: skipped,
		Wakeups:      wakeups,
		ScanFallback: w.Manager.FallbackReason(),
		Replayed:     w.Manager.Replaying(),
	}
}

// Result summarizes the run so far (useful mid-run for progress output).
func (w *World) Result() Result {
	r := Result{
		Summary:             w.Collector.Summarize(),
		Scenario:            w.Scenario,
		Contacts:            w.Manager.Contacts(),
		MeanContactDuration: w.Manager.ContactDurations().Mean(),
		Energy:              w.Manager.EnergyReport(),
		Perf:                w.RunStats(),
	}
	if w.Intermeeting != nil {
		r.MeanIntermeeting = w.Intermeeting.Mean()
		r.ExpFitError = w.Intermeeting.ExpFitError()
		r.IntermeetingN = w.Intermeeting.Count()
	}
	return r
}
