// Package world assembles a full simulation from a config.Scenario: engine,
// mobility, hosts, radio, traffic, and TTL sweeps — the equivalent of the
// ONE simulator's scenario loader.
//
//lint:shard-safe run state is per-World; the traffic substream touchpoint is annotated where it is scheduled
package world

import (
	"fmt"
	"math"
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
	Scenario config.Scenario
	Engine   *sim.Engine
	Hosts    []*routing.Host
	Manager  *network.Manager
	// Collector folds the run's event stream into its Summary; it sees
	// every event the hosts and the radio emit.
	Collector *stats.Collector

	started bool
	// tracer is the WithTracer sink (nil without one): the only receiver
	// of snapshots, which the collector has no use for.
	tracer    obs.Tracer
	scheduled []trace.Contact // non-nil for contact-trace-driven runs
}

// BuildOption customizes world assembly beyond what a config.Scenario
// (a serializable artifact) can describe — runtime wiring like tracers.
type BuildOption func(*buildOptions)

type buildOptions struct {
	tracer         obs.Tracer
	record, replay *network.ContactPlan
	reference      bool
}

// WithTracer routes every lifecycle event of the run (message, contact,
// transfer, eviction) to tr, after the run's own collector has folded it.
// A nil tr attaches nothing.
func WithTracer(tr obs.Tracer) BuildOption {
	return func(o *buildOptions) { o.tracer = tr }
}

// RecordContactPlan records every link transition of the run's contact
// scan into p, which must be empty. Once Run returns without error, p holds
// the whole schedule, and ReplayContactPlan may hand it to runs whose
// contacts are provably the same. Scenarios whose contacts depend on more
// than motion (config.Scenario.MotionOnlyContacts) fail to build or start
// with a plan.
func RecordContactPlan(p *network.ContactPlan) BuildOption {
	return func(o *buildOptions) { o.record = p }
}

// ReplayContactPlan replaces the run's contact scan with p, a whole
// recording of a run that differs from this one in traffic-only fields
// (buffers, policy, protocol, traffic, transfer and link faults). Every
// event, trace byte and result is then the same as a scanning run's; only
// the scan counters read zero, and Result.Perf.Replayed says why.
func ReplayContactPlan(p *network.ContactPlan) BuildOption {
	return func(o *buildOptions) { o.replay = p }
}

// withReferenceScan makes every model report an unbounded speed, so that
// the scan's neighbour list is rebuilt every tick at the largest range: a
// plain per-tick grid pass, the reference the differential tests hold the
// production scan to.
func withReferenceScan() BuildOption {
	return func(o *buildOptions) { o.reference = true }
}

// unbounded is a model that reports no speed bound.
type unbounded struct{ mobility.Model }

func (unbounded) MaxSpeed() float64 { return math.Inf(1) }

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
	// Perf is the engine-level performance digest: events dispatched,
	// events/sec, peak queue depth, wall-clock, and the contact scanner's
	// pairs-checked counter, which describes how the scan did its work
	// rather than what the simulation observed.
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
	tr := obs.Multi(collector, bo.tracer)
	// Ground truth for the hosts' TrueSeen/TrueLive is one more sink on the
	// stream, kept only by runs whose policy reads it.
	var truth *obs.Ledger
	if policy.ReadsTruth(sc.PolicyName) {
		truth = obs.NewLedger()
		tr = obs.Multi(tr, truth)
	}

	var scheduled []trace.Contact
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
	if bo.reference {
		for i, m := range models {
			models[i] = unbounded{m}
		}
	}

	if _, ok := routing.ProtocolByName(sc.ProtocolName); !ok {
		return nil, fmt.Errorf("world: unknown protocol %q", sc.ProtocolName)
	}

	// The fault injector draws only from its own pure split of the root
	// stream, so a fault-free scenario (nil injector) is byte-identical to
	// runs built before the fault layer existed.
	inj := fault.New(sc.Faults, root.Split("fault"), nodes, churnEligible(sc, nodes))

	hosts, err := buildHosts(sc, root, eng.Now, buffers, tr, truth, inj)
	if err != nil {
		return nil, err
	}

	mgr, err := network.NewManager(eng, network.Config{
		Area:         area,
		Range:        sc.Range,
		Bandwidth:    sc.Bandwidth,
		ScanInterval: sc.ScanInterval,
		Ranges:       ranges,
		Tracer:       tr,
		Faults:       inj,
		RecordPlan:   bo.record,
		ReplayPlan:   bo.replay,
		Energy: network.EnergyConfig{
			Capacity:   sc.Energy.Capacity,
			ScanPerSec: sc.Energy.ScanPerSec,
			TxPerSec:   sc.Energy.TxPerSec,
			RxPerSec:   sc.Energy.RxPerSec,
		},
	}, hosts, models)
	if err != nil {
		return nil, fmt.Errorf("world: %w", err)
	}

	w := &World{
		scheduled: scheduled,
		tracer:    bo.tracer,
		Scenario:  sc,
		Engine:    eng,
		Hosts:     hosts,
		Manager:   mgr,
		Collector: collector,
	}
	w.scheduleTraffic(root.Split("traffic"))
	eng.Every(sc.ExpiryInterval, func(now float64) {
		for _, h := range hosts {
			h.ExpireMessages(now)
		}
	})
	return w, nil
}

// buildHosts fills one slab of hosts, node i with buffer capacity
// buffers[i], and one slab of the rate estimators they learn with. The
// hosts share one routing.Env (N, the clock, the tracer, the truth ledger,
// the switches and the eviction scratch) and the estimators one core.Prior.
// Built-in policies are stateless and never draw, so the fleet shares one
// instance; a registered policy gets an instance per host on its own
// substream. Split is pure, so leaving out the streams no policy reads
// changes no draw.
func buildHosts(sc config.Scenario, root *rng.Stream, clock func() float64, buffers []int64,
	tr obs.Tracer, truth *obs.Ledger, inj *fault.Injector) ([]*routing.Host, error) {
	nodes := len(buffers)
	var shared policy.Policy
	if policy.IsBuiltin(sc.PolicyName) {
		pol, err := policy.ByName(sc.PolicyName, nil)
		if err != nil {
			return nil, fmt.Errorf("world: %w", err)
		}
		shared = pol
	}
	var oracle core.RateSource
	var gaps []core.LambdaEstimator
	var census []core.CensusEstimator
	prior := &core.Prior{Mean: sc.PriorMeanIntermeeting, Weight: sc.PriorWeight, Nodes: nodes}
	switch {
	case sc.OracleRateMean > 0:
		oracle = core.FixedRate{Mean: sc.OracleRateMean}
	case sc.GapLambdaEstimator:
		gaps = make([]core.LambdaEstimator, nodes)
	default:
		census = make([]core.CensusEstimator, nodes)
	}
	env := routing.NewEnv(routing.HostConfig{
		Nodes:             nodes,
		UseDropList:       policy.UsesDropList(sc.PolicyName) && !sc.DisableDropList,
		PreflightEviction: sc.PreflightEviction,
		Clock:             clock,
		Tracer:            tr,
		Truth:             truth,
	})
	slab := make([]routing.Host, nodes)
	hosts := make([]*routing.Host, nodes)
	for i := range slab {
		pol := shared
		if pol == nil {
			var err error
			if pol, err = policy.ByName(sc.PolicyName, root.SplitIndex("policy", i)); err != nil {
				return nil, fmt.Errorf("world: %w", err)
			}
		}
		rate := oracle
		switch {
		case gaps != nil:
			core.InitLambdaEstimator(&gaps[i], prior)
			rate = &gaps[i]
		case census != nil:
			core.InitCensusEstimator(&census[i], prior)
			rate = &census[i]
		}
		// Stateful protocols carry per-node tables: one instance per host.
		proto, _ := routing.ProtocolByName(sc.ProtocolName)
		routing.InitHost(&slab[i], env, routing.HostConfig{
			ID:      i,
			Buffer:  buffers[i],
			Policy:  pol,
			Proto:   proto,
			Rate:    rate,
			UseAcks: sc.UseAcks,
			Role:    inj.Role(i),
		})
		hosts[i] = &slab[i]
	}
	return hosts, nil
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
func buildScheduled(sc config.Scenario) ([]trace.Contact, []mobility.Model, []int64, []float64, geo.Rect, int, error) {
	f, err := os.Open(sc.ContactTraceFile)
	if err != nil {
		return nil, nil, nil, nil, geo.Rect{}, 0, fmt.Errorf("world: %w", err)
	}
	defer f.Close()
	contacts, err := trace.ParseContacts(f)
	if err != nil {
		return nil, nil, nil, nil, geo.Rect{}, 0, fmt.Errorf("world: %w", err)
	}
	nodes := trace.MaxNode(contacts) + 1
	if sc.Nodes > nodes {
		nodes = sc.Nodes
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
	nodes := 0
	for _, g := range sc.Groups {
		nodes += g.Count
	}
	models := make([]mobility.Model, nodes)
	buffers := make([]int64, nodes)
	ranges := make([]float64, nodes)
	first := 0
	for gi, g := range sc.Groups {
		buf := g.BufferBytes
		if buf <= 0 {
			buf = sc.BufferBytes
		}
		radioRange := g.Range
		if radioRange <= 0 {
			radioRange = sc.Range
		}
		group := models[first : first+g.Count]
		if g.Mobility.Kind == config.MobilityStatic {
			fillModels(group, mroot, first, func(m *mobility.Static, s *rng.Stream) {
				m.P = geo.Point{
					X: s.Uniform(sc.Area.Min.X, sc.Area.Max.X),
					Y: s.Uniform(sc.Area.Min.Y, sc.Area.Max.Y),
				}
			})
		} else if !fillUniform(group, mroot, first, g.Mobility, sc.Area) {
			return nil, nil, nil, geo.Rect{}, 0, fmt.Errorf("world: group %d: unsupported mobility %q", gi, g.Mobility.Kind)
		}
		for i := first; i < first+g.Count; i++ {
			buffers[i] = buf
			ranges[i] = radioRange
		}
		first += g.Count
	}
	return models, buffers, ranges, sc.Area, nodes, nil
}

// fillModels points models[k] at the model of node first+k. The models are
// one slab of T, and their streams, the "node" substreams of mroot, one
// slab of streams; init fills a model in place on its stream.
func fillModels[T any, P interface {
	*T
	mobility.Model
}](models []mobility.Model, mroot *rng.Stream, first int, init func(P, *rng.Stream)) {
	streams := make([]rng.Stream, len(models))
	slab := make([]T, len(models))
	for k := range slab {
		mroot.SplitIndexInto(&streams[k], "node", first+k)
		init(&slab[k], &streams[k])
		models[k] = P(&slab[k])
	}
}

// fillUniform fills models with the walkers of nodes first, first+1, … for
// the uniform-range kinds (random waypoint, random walk, random direction)
// over area, all drawing their legs from one mobility.Legs, and reports
// false, filling nothing, for any other kind.
func fillUniform(models []mobility.Model, mroot *rng.Stream, first int, mob config.Mobility, area geo.Rect) bool {
	legs := legsOf(mob, area)
	switch mob.Kind {
	case config.MobilityRWP:
		fillModels(models, mroot, first, func(m *mobility.RandomWaypoint, s *rng.Stream) {
			mobility.InitRandomWaypoint(m, legs, s)
		})
	case config.MobilityRandomWalk:
		fillModels(models, mroot, first, func(m *mobility.RandomWalk, s *rng.Stream) {
			mobility.InitRandomWalk(m, legs, s)
		})
	case config.MobilityRandomDirection:
		fillModels(models, mroot, first, func(m *mobility.RandomDirection, s *rng.Stream) {
			mobility.InitRandomDirection(m, legs, s)
		})
	default:
		return false
	}
	return true
}

// legsOf returns the leg settings one group's walkers share: area, and
// mob's speed and pause ranges and epoch distance.
func legsOf(mob config.Mobility, area geo.Rect) *mobility.Legs {
	return &mobility.Legs{Area: area, SpeedLo: mob.SpeedLo, SpeedHi: mob.SpeedHi,
		PauseLo: mob.PauseLo, PauseHi: mob.PauseHi, EpochDist: mob.EpochDist}
}

func buildMobility(sc config.Scenario, root *rng.Stream) ([]mobility.Model, geo.Rect, int, error) {
	mroot := root.Split("mobility")
	switch sc.Mobility.Kind {
	case config.MobilityRWP, config.MobilityRandomWalk, config.MobilityRandomDirection:
		models := make([]mobility.Model, sc.Nodes)
		fillUniform(models, mroot, 0, sc.Mobility, sc.Area)
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
		if err == nil {
			err = mobility.CheckRoadGraph(g)
		}
		if err != nil {
			return nil, geo.Rect{}, 0, fmt.Errorf("world: %w", err)
		}
		models := make([]mobility.Model, sc.Nodes)
		legs := legsOf(sc.Mobility, geo.Rect{})
		fillModels(models, mroot, 0, func(m *mobility.MapRoute, s *rng.Stream) {
			mobility.InitMapRoute(m, g, legs, s)
		})
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
//
// A world whose contacts depend on motion alone scans ahead of the engine
// on a second goroutine (network.Manager.RunAhead), which ends before Run
// returns, on every path. Every event and result is what a lockstep scan
// gives.
func (w *World) Run() (Result, error) { return w.run(true) }

// run is Run; ahead false keeps the scan in lockstep with the engine even
// where it could run ahead, the reference the run-ahead tests compare with.
func (w *World) run(ahead bool) (Result, error) {
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
	if ahead {
		stop := w.Manager.RunAhead(w.Scenario.Duration)
		defer stop()
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
	return obs.RunStats{
		SimSeconds:   w.Engine.Now(),
		Events:       w.Engine.Processed(),
		PeakQueue:    w.Engine.PeakQueue(),
		WallSeconds:  w.Engine.Wall().Seconds(),
		PairsChecked: w.Manager.ScanStats(),
		Replayed:     w.Manager.Replaying(),
	}
}

// Result summarizes the run so far (useful mid-run for progress output).
func (w *World) Result() Result {
	return Result{
		Summary:             w.Collector.Summarize(),
		Scenario:            w.Scenario,
		Contacts:            w.Manager.Contacts(),
		MeanContactDuration: w.Manager.MeanContactDuration(),
		Energy:              w.Manager.EnergyReport(),
		Perf:                w.RunStats(),
	}
}
