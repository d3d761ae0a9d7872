// Package sdsrp is a discrete-event delay-tolerant-network (DTN) simulator
// and a reference implementation of SDSRP — the message Scheduling and Drop
// Strategy on the Spray-and-Wait Routing Protocol of Wang, Yang, Wu and Liu
// (ICPP 2015).
//
// The package is a façade over the internal implementation:
//
//   - Scenario describes a run (presets RandomWaypointScenario and
//     EPFLScenario reproduce the paper's Tables II and III);
//   - Run executes one scenario and returns the headline metrics (delivery
//     ratio, average hopcounts, overhead ratio);
//   - Experiments / RunExperiment regenerate every figure of the paper;
//   - RegisterPolicy plugs user-defined buffer-management strategies into
//     the comparison harness.
//
// A minimal session:
//
//	sc := sdsrp.RandomWaypointScenario()
//	sc.PolicyName = "SDSRP"
//	res, err := sdsrp.Run(sc)
//	if err != nil { ... }
//	fmt.Println(res.DeliveryRatio, res.AvgHops, res.OverheadRatio)
package sdsrp

import (
	"io"

	"sdsrp/internal/config"
	"sdsrp/internal/experiment"
	"sdsrp/internal/fault"
	"sdsrp/internal/msg"
	"sdsrp/internal/obs"
	"sdsrp/internal/policy"
	"sdsrp/internal/report"
	"sdsrp/internal/rng"
	"sdsrp/internal/stats"
	"sdsrp/internal/world"
)

// Core simulation types.
type (
	// Scenario fully describes one simulation run.
	Scenario = config.Scenario
	// Mobility selects and parameterizes the movement model.
	Mobility = config.Mobility
	// Result is the digest of a finished run.
	Result = world.Result
	// World is an assembled simulation (exposed for callers that want to
	// inspect hosts or step the engine themselves).
	World = world.World
)

// Crash-safety types (see internal/experiment): a RunJournal is an
// append-only JSONL manifest of finished runs keyed by scenario digest;
// attaching one to ExperimentOptions (plus Resume) lets an interrupted
// sweep restart without redoing completed work.
type (
	// RunJournal durably records finished runs, keyed by scenario digest.
	RunJournal = experiment.Journal
	// JournalEntry is one journaled run outcome.
	JournalEntry = experiment.Entry
	// SweepRunError attributes one failed run inside a batch (index, name,
	// cause); batch errors are an errors.Join of these.
	SweepRunError = experiment.RunError
	// SweepPanicError is a worker panic converted into a per-run error
	// (recovered value plus stack).
	SweepPanicError = experiment.PanicError
)

// Crash-safety sentinels, matched with errors.Is.
var (
	// ErrSweepInterrupted marks runs a sweep never started because its
	// Interrupt channel fired.
	ErrSweepInterrupted = experiment.ErrInterrupted
	// ErrBudgetExceeded marks runs stopped by the Scenario.MaxEvents
	// event budget.
	ErrBudgetExceeded = world.ErrBudgetExceeded
	// ErrRunTimeout marks runs stopped by the per-run wall-clock watchdog
	// (ExperimentOptions.RunTimeout).
	ErrRunTimeout = world.ErrRunTimeout
)

// OpenRunJournal opens (creating if needed) the run journal at path,
// healing a truncated tail line left by a crash mid-append.
func OpenRunJournal(path string) (*RunJournal, error) { return experiment.OpenJournal(path) }

// ScenarioDigest returns the scenario's content address: a SHA-256 hex
// digest over its canonical serialization. Equal digests mean the runs
// would simulate identically.
func ScenarioDigest(sc Scenario) (string, error) { return experiment.Digest(sc) }

// Experiment and reporting types.
type (
	// ExperimentOptions tunes experiment cost (scale, node count, seeds,
	// worker parallelism).
	ExperimentOptions = experiment.Options
	// ExperimentSpec names one runnable figure/ablation.
	ExperimentSpec = experiment.Spec
	// ExperimentProgress is the rich progress payload (elapsed, ETA,
	// per-run wall-clock) delivered to ExperimentOptions.ProgressStats.
	ExperimentProgress = experiment.ProgressInfo
	// Panel is one reproduced sub-figure (table + chart renderable).
	Panel = report.Panel
	// Curve is one line on a panel.
	Curve = report.Curve
)

// Observability types (see internal/obs).
type (
	// Tracer receives structured lifecycle events from an instrumented run.
	Tracer = obs.Tracer
	// TraceEvent is one simulation occurrence (message, contact, transfer,
	// or eviction transition).
	TraceEvent = obs.Event
	// TraceEventType classifies a TraceEvent.
	TraceEventType = obs.Type
	// JSONLTracer writes one JSON object per event per line.
	JSONLTracer = obs.JSONL
	// RingTracer keeps the most recent events in memory.
	RingTracer = obs.Ring
	// RunStats is the engine-level performance digest of one run.
	RunStats = obs.RunStats
	// MessageLedger folds an event stream into per-message provenance
	// records (lifecycle, custody chain, terminal fate) and counts its
	// events by type.
	MessageLedger = obs.Ledger
	// MessageRecord is one message's reconstructed lifecycle.
	MessageRecord = obs.MessageRecord
	// IntermeetingRecorder samples a run's intermeeting times (Fig. 3)
	// from its contact events; attach one with WithTracer.
	IntermeetingRecorder = stats.Intermeeting
	// BuildOption customizes Build beyond the scenario (e.g. WithTracer).
	BuildOption = world.BuildOption
)

// The values of TraceEventType, under the names internal/obs gives them;
// each prints as its wire name in the JSONL log ("created", "contact_up",
// …), and MessageLedger.Count takes them.
const (
	MessageCreated   = obs.MessageCreated
	MessageForwarded = obs.MessageForwarded
	MessageDelivered = obs.MessageDelivered
	MessageDropped   = obs.MessageDropped
	MessageExpired   = obs.MessageExpired
	MessageRefused   = obs.MessageRefused
	ContactUp        = obs.ContactUp
	ContactDown      = obs.ContactDown
	TransferStart    = obs.TransferStart
	TransferAbort    = obs.TransferAbort
	TransferLost     = obs.TransferLost
	NodeDown         = obs.NodeDown
	NodeUp           = obs.NodeUp
	LinkFlap         = obs.LinkFlap
	MessagePurged    = obs.MessagePurged
	Snapshot         = obs.Snapshot
)

// WithTracer makes Build route every lifecycle event of the run to tr.
func WithTracer(tr Tracer) BuildOption { return world.WithTracer(tr) }

// NewJSONLTracer returns a sink writing one deterministic JSON object per
// event per line; call Flush when the run finishes.
func NewJSONLTracer(w io.Writer) *obs.JSONL { return obs.NewJSONL(w) }

// NewRingTracer returns an in-memory sink keeping the last n events.
func NewRingTracer(n int) *obs.Ring { return obs.NewRing(n) }

// MultiTracer fans events out to every non-nil sink (nil when none).
func MultiTracer(sinks ...Tracer) Tracer { return obs.Multi(sinks...) }

// NewMessageLedger returns an empty provenance ledger sink.
func NewMessageLedger() *obs.Ledger { return obs.NewLedger() }

// FoldEventLog replays a JSONL event stream into a provenance ledger.
func FoldEventLog(r io.Reader) (*MessageLedger, error) { return obs.FoldLog(r) }

// OpenEventLog opens a JSONL event log for reading, transparently
// decompressing paths ending in .gz.
func OpenEventLog(path string) (io.ReadCloser, error) { return obs.OpenLog(path) }

// CreateEventLog creates a JSONL event log for writing, transparently
// compressing paths ending in .gz.
func CreateEventLog(path string) (io.WriteCloser, error) { return obs.CreateLog(path) }

// Policy-extension types.
type (
	// Policy scores messages for scheduling (high first) and dropping
	// (low first).
	Policy = policy.Policy
	// PolicyView is the node state visible to a policy.
	PolicyView = policy.View
	// Stored is one node's copy of a message.
	Stored = msg.Stored
	// Message is the immutable identity of a DTN bundle.
	Message = msg.Message
	// RandomStream is a deterministic random stream handed to policy
	// factories.
	RandomStream = rng.Stream
)

// MB is the decimal megabyte used by buffer/message sizes.
const MB = config.MB

// Group is one homogeneous sub-population of a heterogeneous scenario.
type Group = config.Group

// Fault-injection types (see internal/fault): set Scenario.Faults to
// enable deterministic loss, flapping, jitter, churn, and adversarial
// roles.
type (
	// FaultConfig is the per-scenario fault-injection configuration.
	FaultConfig = fault.Config
	// FaultChurn parameterizes node crash/reboot churn.
	FaultChurn = fault.Churn
)

// RandomWaypointScenario returns the paper's Table II synthetic preset.
func RandomWaypointScenario() Scenario { return config.RandomWaypoint() }

// EPFLScenario returns the paper's Table III taxi-trace preset (backed by
// the synthetic San Francisco fleet — see DESIGN.md §4).
func EPFLScenario() Scenario { return config.EPFL() }

// Build assembles a world without running it. Options (e.g. WithTracer)
// attach runtime wiring the serializable Scenario cannot carry.
func Build(sc Scenario, opts ...BuildOption) (*World, error) { return world.Build(sc, opts...) }

// Run builds and executes one scenario.
func Run(sc Scenario) (Result, error) {
	w, err := world.Build(sc)
	if err != nil {
		return Result{}, err
	}
	return w.Run()
}

// RunAll executes scenarios in parallel over the given worker count
// (0 = GOMAXPROCS) and returns results in input order.
func RunAll(scs []Scenario, workers int) ([]Result, error) {
	return experiment.Options{Workers: workers}.RunScenarios(scs)
}

// Experiments lists every reproducible figure and ablation.
func Experiments() []ExperimentSpec { return experiment.All() }

// RunExperiment regenerates one figure by registry name (e.g.
// "fig8copies").
func RunExperiment(name string, o ExperimentOptions) ([]Panel, error) {
	spec, ok := experiment.ByName(name)
	if !ok {
		return nil, errUnknownExperiment(name)
	}
	return spec.Run(o)
}

type errUnknownExperiment string

func (e errUnknownExperiment) Error() string {
	return "sdsrp: unknown experiment " + string(e)
}

// RegisterPolicy plugs a user-defined buffer-management strategy into the
// harness under the given name, making it usable as Scenario.PolicyName
// and in experiment option policy lists.
func RegisterPolicy(name string, factory func(*RandomStream) Policy) error {
	return policy.Register(name, func(s *rng.Stream) policy.Policy { return factory(s) })
}

// PaperPolicies are the four strategies compared throughout Section IV, in
// the paper's order: plain Spray-and-Wait (FIFO), Spray-and-Wait-O,
// Spray-and-Wait-C, and SDSRP.
func PaperPolicies() []string {
	return append([]string(nil), experiment.PaperPolicies...)
}
