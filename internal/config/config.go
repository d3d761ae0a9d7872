// Package config defines simulation scenarios and the paper's two presets
// (Table II: random-waypoint; Table III: EPFL taxi trace).
package config

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"strings"

	"sdsrp/internal/fault"
	"sdsrp/internal/geo"
	"sdsrp/internal/mobility"
)

// MB is the byte-size unit (decimal, as in the ONE simulator's "2.5M").
const MB int64 = 1_000_000

// MobilityKind selects the movement model.
type MobilityKind string

// Supported mobility kinds.
const (
	MobilityRWP             MobilityKind = "random-waypoint"
	MobilityRandomWalk      MobilityKind = "random-walk"
	MobilityRandomDirection MobilityKind = "random-direction"
	MobilityTaxi            MobilityKind = "taxi"      // synthetic EPFL substitute
	MobilityTraceDir        MobilityKind = "trace-dir" // real cabspotting files
	MobilityONEFile         MobilityKind = "one-trace" // ONE external-movement file
	MobilityStatic          MobilityKind = "static"    // fixed positions (relays, throwboxes)
	MobilityMapGrid         MobilityKind = "map-grid"  // shortest paths on a street grid
	MobilityMapFile         MobilityKind = "map-file"  // shortest paths on an edge-list road map
)

// Mobility parameterizes the movement model.
type Mobility struct {
	Kind MobilityKind

	// Waypoint-family parameters (RWP, walk, direction).
	SpeedLo, SpeedHi float64 // m/s
	PauseLo, PauseHi float64 // s
	EpochDist        float64 // random-walk leg length, m

	// Taxi parameters (synthetic trace).
	Taxi mobility.TaxiConfig
	// SampleInterval is the synthetic GPS fix period in seconds.
	SampleInterval float64

	// TraceDir points at a directory of cabspotting files for
	// MobilityTraceDir.
	TraceDir string
	// TraceFile points at a ONE external-movement file for MobilityONEFile.
	TraceFile string

	// Map-constrained movement (MobilityMapGrid / MobilityMapFile): nodes
	// walk shortest paths on a road graph between random intersections.
	MapCols, MapRows int     // grid intersections (map-grid)
	MapSpacing       float64 // street spacing in metres (map-grid)
	MapDropProb      float64 // fraction of street segments removed (map-grid)
	MapFile          string  // edge-list road map path (map-file)
	MapSnap          float64 // vertex snap distance for map files (default 1 m)
}

// Scenario fully describes one simulation run.
type Scenario struct {
	Name     string
	Seed     uint64
	Duration float64 // s
	// Warmup excludes messages generated before this time (seconds) from
	// the per-message metrics, letting buffers and estimators reach steady
	// state first. 0 (the paper's setting) counts everything.
	Warmup float64

	Nodes int
	Area  geo.Rect // synthetic mobility area (trace kinds override it)

	Mobility Mobility
	// ContactTraceFile, when set, replaces mobility entirely: the radio
	// layer replays a recorded contact trace (one "a b start end" line per
	// encounter, the Haggle/Infocom convention). Nodes is raised to cover
	// every id in the trace.
	ContactTraceFile string
	// Groups optionally splits the population into heterogeneous groups
	// (e.g. pedestrians plus vehicles, or mobile nodes plus fixed relays).
	// When non-empty, Groups replaces Nodes/Mobility/BufferBytes for node
	// construction: the network has ΣCount nodes, each group moving under
	// its own mobility model and buffer size (0 fields fall back to the
	// scenario-level values). Trace-driven kinds are not allowed inside
	// groups.
	Groups []Group

	Range        float64 // radio range, m
	Bandwidth    float64 // bytes/s
	ScanInterval float64 // connectivity scan period, s

	BufferBytes int64
	MessageSize int64
	// MessageSizeHi > 0 enables heterogeneous payloads: each message's
	// size is drawn uniformly from [MessageSize, MessageSizeHi] bytes.
	// 0 keeps the paper's fixed 0.5 MB payloads.
	MessageSizeHi int64
	TTL           float64 // s
	// One message is generated network-wide every Uniform[GenIntervalLo,
	// GenIntervalHi] seconds. GenIntervalLo <= 0 disables traffic (used by
	// the Fig. 3 intermeeting measurement).
	GenIntervalLo, GenIntervalHi float64
	InitialCopies                int

	PolicyName   string // see policy.ByName
	ProtocolName string // see routing.ProtocolByName

	ExpiryInterval float64 // TTL sweep period, s

	// PriorMeanIntermeeting seeds each node's λ estimator (pseudo-sample
	// mean and weight). Ignored when OracleRateMean > 0.
	PriorMeanIntermeeting float64
	PriorWeight           float64
	// GapLambdaEstimator selects the paper-literal intermeeting-gap
	// estimator instead of the default contact-census estimator (see
	// core.CensusEstimator for why the gap average is censored/biased at
	// this experiment scale). Ablation: ablation-lambda.
	GapLambdaEstimator bool
	// OracleRateMean > 0 gives every node a fixed true E(I) instead of the
	// distributed estimator (ablation).
	OracleRateMean float64

	// DisableDropList turns off the Fig. 5 gossip even for SDSRP
	// (ablation: d̂_i = 0 and no re-receipt rejection).
	DisableDropList bool

	// PreflightEviction is an ablation of the overflow semantics: when set,
	// receivers evaluate the eviction plan before any bytes move and refuse
	// transfers whose payload would be the victim, saving the bandwidth and
	// spray tokens that the paper's Algorithm 1 (receive first, drop after —
	// the default here) spends.
	PreflightEviction bool

	// Energy enables the per-node battery model when Capacity > 0: radios
	// drain while scanning and transferring, and a depleted node's radio
	// goes dark (extension; the paper models no energy constraints).
	Energy Energy

	// UseAcks enables the immunization extension (delivered-message ACKs
	// gossip and purge copies). The paper's model excludes it; extra-ack
	// measures its effect.
	UseAcks bool

	// Faults configures the deterministic fault-injection layer (radio
	// loss, link flapping, bandwidth jitter, node churn, adversarial
	// roles). The zero value disables it entirely; see internal/fault.
	Faults fault.Config

	// MaxEvents, when > 0, bounds the total number of engine events a run
	// may dispatch; the run stops with world.ErrBudgetExceeded once the
	// budget is exhausted. The cutoff depends only on the event stream, so
	// it is deterministic: the same scenario always stops at the same
	// event. 0 (the default) leaves the run unbounded. This is runaway
	// protection for sweeps and services, not a modeling knob.
	MaxEvents uint64
}

// Energy parameterizes the battery model (joules and joules/second).
type Energy struct {
	Capacity   float64
	ScanPerSec float64
	TxPerSec   float64
	RxPerSec   float64
}

// Group is one homogeneous sub-population of a heterogeneous scenario.
type Group struct {
	// Name labels the group in diagnostics.
	Name  string
	Count int
	// Mobility for this group; Kind must be a synthetic model.
	Mobility Mobility
	// BufferBytes overrides the scenario buffer for this group when > 0.
	BufferBytes int64
	// Range overrides the scenario radio range for this group when > 0
	// (e.g. long-range fixed relays among short-range handhelds).
	Range float64
}

// RandomWaypoint returns the paper's Table II baseline scenario: 100
// pedestrian nodes at 2 m/s in a 4500 m × 3400 m area, 2.5 MB buffers,
// 0.5 MB messages every 25–35 s with 300 min TTL and L = 32 copies.
func RandomWaypoint() Scenario {
	return Scenario{
		Name:     "random-waypoint",
		Seed:     1,
		Duration: 18000,
		Nodes:    100,
		Area:     geo.NewRect(4500, 3400),
		Mobility: Mobility{
			Kind:    MobilityRWP,
			SpeedLo: 2, SpeedHi: 2,
			PauseLo: 0, PauseHi: 0,
		},
		Range:         100,
		Bandwidth:     31_250, // 250 kbit/s
		ScanInterval:  1,
		BufferBytes:   2*MB + MB/2,
		MessageSize:   MB / 2,
		TTL:           300 * 60,
		GenIntervalLo: 25, GenIntervalHi: 35,
		InitialCopies:         32,
		PolicyName:            "SDSRP",
		ProtocolName:          "spray-and-wait",
		ExpiryInterval:        60,
		PriorMeanIntermeeting: 20000,
		PriorWeight:           1,
	}
}

// EPFL returns the paper's Table III scenario backed by the synthetic taxi
// fleet (DESIGN.md §4): 200 taxis over the first 18 000 s, radio and
// traffic parameters identical to Table II.
func EPFL() Scenario {
	sc := RandomWaypoint()
	sc.Name = "epfl"
	sc.Nodes = 200
	sc.Mobility = Mobility{
		Kind:           MobilityTaxi,
		Taxi:           mobility.DefaultTaxiConfig(),
		SampleInterval: 30,
	}
	sc.Area = sc.Mobility.Taxi.Area
	sc.PriorMeanIntermeeting = 40000
	return sc
}

// Validate checks the scenario for inconsistencies that would make a run
// meaningless rather than merely slow.
func (s Scenario) Validate() error {
	var errs []error
	add := func(format string, args ...any) { errs = append(errs, fmt.Errorf(format, args...)) }
	nonFinite(reflect.ValueOf(s), make([]int, 0, 8), add)
	if s.Duration <= 0 {
		add("duration %v must be positive", s.Duration)
	}
	if s.Nodes < 2 {
		add("need at least 2 nodes, got %d", s.Nodes)
	}
	if s.Range <= 0 {
		add("range %v must be positive", s.Range)
	}
	if s.Bandwidth <= 0 {
		add("bandwidth %v must be positive", s.Bandwidth)
	}
	if s.ScanInterval <= 0 {
		add("scan interval %v must be positive", s.ScanInterval)
	}
	if s.MessageSize <= 0 {
		add("message size %d must be positive", s.MessageSize)
	}
	maxMsg := s.MessageSize
	if s.MessageSizeHi > 0 {
		if s.MessageSizeHi < s.MessageSize {
			add("message size range [%d,%d] inverted", s.MessageSize, s.MessageSizeHi)
		}
		maxMsg = s.MessageSizeHi
	}
	if s.BufferBytes < maxMsg {
		add("buffer %dB cannot hold even one %dB message", s.BufferBytes, maxMsg)
	}
	if s.TTL <= 0 {
		add("ttl %v must be positive", s.TTL)
	}
	if s.GenIntervalLo > 0 && s.GenIntervalHi < s.GenIntervalLo {
		add("generation interval [%v,%v] inverted", s.GenIntervalLo, s.GenIntervalHi)
	}
	if s.InitialCopies < 1 {
		add("initial copies %d must be >= 1", s.InitialCopies)
	}
	if s.ExpiryInterval <= 0 {
		add("expiry interval %v must be positive", s.ExpiryInterval)
	}
	if s.Warmup < 0 || s.Warmup >= s.Duration {
		add("warmup %v must be in [0, duration)", s.Warmup)
	}
	if s.Energy.Capacity > 0 &&
		s.Energy.ScanPerSec <= 0 && s.Energy.TxPerSec <= 0 && s.Energy.RxPerSec <= 0 {
		add("energy model enabled with no drain rates")
	}
	if s.Energy.Capacity < 0 || s.Energy.ScanPerSec < 0 || s.Energy.TxPerSec < 0 || s.Energy.RxPerSec < 0 {
		add("energy parameters must be non-negative")
	}
	// Without an oracle rate every node learns λ with an estimator that
	// blends the prior in as PriorWeight pseudo-samples of mean
	// PriorMeanIntermeeting, which only a positive mean makes sense of.
	if s.OracleRateMean <= 0 {
		if s.PriorWeight < 0 {
			add("prior weight %v must be non-negative", s.PriorWeight)
		}
		if s.PriorWeight > 0 && s.PriorMeanIntermeeting <= 0 {
			add("prior mean intermeeting %v must be positive when the prior weighs %v", s.PriorMeanIntermeeting, s.PriorWeight)
		}
	}
	groupNames := make([]string, 0, len(s.Groups))
	for _, g := range s.Groups {
		groupNames = append(groupNames, g.Name)
	}
	if err := s.Faults.Validate(groupNames); err != nil {
		errs = append(errs, err)
	}
	if s.ContactTraceFile != "" {
		return errors.Join(errs...) // mobility/area are unused
	}
	if len(s.Groups) > 0 {
		total := 0
		for i, g := range s.Groups {
			if g.Count <= 0 {
				add("group %d has count %d", i, g.Count)
			}
			total += g.Count
			switch g.Mobility.Kind {
			case MobilityRWP, MobilityRandomWalk, MobilityRandomDirection, MobilityStatic:
			default:
				add("group %d has unsupported mobility kind %q", i, g.Mobility.Kind)
			}
			checkMotion(g.Mobility, fmt.Sprintf("group %d ", i), add)
			if g.BufferBytes > 0 && g.BufferBytes < maxMsg {
				add("group %d buffer %dB cannot hold a %dB message", i, g.BufferBytes, maxMsg)
			}
		}
		if total < 2 {
			add("groups hold %d nodes, need at least 2", total)
		}
		if s.Area.W() <= 0 || s.Area.H() <= 0 {
			add("area %v degenerate", s.Area)
		}
		return errors.Join(errs...)
	}
	checkMotion(s.Mobility, "", add)
	switch s.Mobility.Kind {
	case MobilityRWP, MobilityRandomDirection:
		if s.Area.W() <= 0 || s.Area.H() <= 0 {
			add("area %v degenerate", s.Area)
		}
	case MobilityRandomWalk:
	case MobilityTaxi:
		if s.Mobility.SampleInterval <= 0 {
			add("taxi sample interval must be positive")
		}
		if s.Mobility.Taxi.Area.W() <= 0 {
			add("taxi area degenerate")
		}
	case MobilityTraceDir:
		if s.Mobility.TraceDir == "" {
			add("trace-dir mobility needs TraceDir")
		}
	case MobilityMapGrid:
		if s.Mobility.MapCols < 2 || s.Mobility.MapRows < 2 {
			add("map-grid needs at least 2x2 intersections")
		}
		if s.Mobility.MapSpacing <= 0 {
			add("map-grid spacing must be positive")
		}
		if s.Mobility.MapDropProb < 0 || s.Mobility.MapDropProb >= 1 {
			add("map-grid drop probability must be in [0,1)")
		}
	case MobilityMapFile:
		if s.Mobility.MapFile == "" {
			add("map-file mobility needs MapFile")
		}
	case MobilityONEFile:
		if s.Mobility.TraceFile == "" {
			add("one-trace mobility needs TraceFile")
		}
	default:
		add("unknown mobility kind %q", s.Mobility.Kind)
	}
	return errors.Join(errs...)
}

// checkMotion reports, each error prefixed by where, the parameters of m
// that break the speed bound its model reports. The waypoint and map kinds
// draw every leg's speed from [SpeedLo, SpeedHi] and report SpeedHi as
// MaxSpeed, on which the contact scan's neighbour list sizes its period, so
// an inverted range would let nodes outrun the bound and the scan miss
// contacts. A random walk also needs legs of positive length, or each
// position sample would walk zero-length legs without end.
func checkMotion(m Mobility, where string, add func(string, ...any)) {
	switch m.Kind {
	case MobilityRWP, MobilityRandomWalk, MobilityRandomDirection, MobilityMapGrid, MobilityMapFile:
		if !(0 < m.SpeedLo && m.SpeedLo <= m.SpeedHi) {
			add("%sspeed range [%v,%v] invalid", where, m.SpeedLo, m.SpeedHi)
		}
	}
	if m.Kind == MobilityRandomWalk && !(m.EpochDist > 0) {
		add("%srandom walk epoch distance must be positive", where)
	}
}

// nonFinite reports every NaN or ±Inf float64 reachable from v through
// struct fields and slice elements. path holds the field and element
// indices that lead from the Scenario to v; it is rendered only for an
// error, so a valid scenario costs no allocation per field. The fault
// section is left to fault.Config.Validate.
func nonFinite(v reflect.Value, path []int, add func(string, ...any)) {
	switch v.Kind() {
	case reflect.Float64:
		if f := v.Float(); math.IsNaN(f) || math.IsInf(f, 0) {
			add("%s %v must be finite", fieldName(path), f)
		}
	case reflect.Struct:
		if v.Type() == reflect.TypeOf(fault.Config{}) {
			return
		}
		for i := 0; i < v.NumField(); i++ {
			nonFinite(v.Field(i), append(path, i), add)
		}
	case reflect.Slice:
		for i := 0; i < v.Len(); i++ {
			nonFinite(v.Index(i), append(path, i), add)
		}
	}
}

// fieldName renders an index path from the Scenario, e.g. Groups[0].Range.
func fieldName(path []int) string {
	var b strings.Builder
	t := reflect.TypeOf(Scenario{})
	for _, i := range path {
		if t.Kind() == reflect.Slice {
			fmt.Fprintf(&b, "[%d]", i)
			t = t.Elem()
			continue
		}
		if b.Len() > 0 {
			b.WriteByte('.')
		}
		f := t.Field(i)
		b.WriteString(f.Name)
		t = f.Type
	}
	return b.String()
}
