// Package fault implements deterministic fault injection for the simulator:
// composable adversity models (radio loss, link flapping, bandwidth jitter,
// node crash/reboot churn, black-hole and selfish nodes) driven entirely by
// a dedicated rng substream.
//
// Design constraints, in priority order:
//
//   - Determinism. Every fault decision is drawn from a child of the run's
//     "fault" stream, split per model ("loss", "flap", "jitter", "churn",
//     "roles"). Splitting is pure, so enabling one fault model never
//     perturbs the draw sequence of another — and enabling any of them
//     never perturbs the mobility, traffic, or policy streams. Same seed,
//     same faults ⇒ byte-identical event logs.
//   - Zero cost when off. A disabled Config yields a nil *Injector; every
//     Injector method is nil-safe and allocation-free on the nil receiver,
//     so instrumented hot paths pay one branch when faults are off (the
//     same discipline as obs.Tracer).
//   - Zero intensity ≡ disabled. A model whose parameters make it a no-op
//     (loss probability 0, jitter multiplier pinned to 1) draws nothing or
//     draws values that cannot change behaviour, so a zero-intensity run is
//     byte-identical to a fault-free run.
//
// The package holds the fault *model* only: configuration, validation, role
// assignment, and random draws. Actuation lives with the subsystems that own
// the affected state — internal/network cuts links and discards transfers,
// internal/routing implements adversarial node behaviour, internal/world
// wires it all from config.Scenario.Faults.
//
//lint:shard-safe the injector owns four substreams injected at construction; no package state
package fault

import (
	"errors"
	"fmt"
	"math"

	"sdsrp/internal/rng"
)

// Role classifies a node's behaviour under the adversary model.
type Role uint8

const (
	// RoleHonest nodes follow the protocol.
	RoleHonest Role = iota
	// RoleBlackHole nodes accept every relayed copy and silently discard
	// it: the sender spends its bytes and spray tokens, the copy vanishes.
	RoleBlackHole
	// RoleSelfish nodes refuse to carry traffic for others (every
	// replication offer is declined) but still send their own messages and
	// consume messages addressed to them.
	RoleSelfish
)

// String returns a stable name for diagnostics.
func (r Role) String() string {
	switch r {
	case RoleHonest:
		return "honest"
	case RoleBlackHole:
		return "black-hole"
	case RoleSelfish:
		return "selfish"
	default:
		return "unknown"
	}
}

// Config is the serializable fault section of a scenario. The zero value
// disables fault injection entirely.
type Config struct {
	// TransferLossProb is the probability that a completed transfer is
	// discarded by the receiver (the bytes crossed the wire but the frame
	// is unusable). Applies to every transfer kind, deliveries included.
	// The sender's state is untouched, exactly as for a link-down abort.
	TransferLossProb float64

	// LinkFlapMeanUp, when > 0, cuts every contact short after an
	// exponentially distributed up-time with this mean (seconds). A flapped
	// pair stays down until the nodes genuinely leave radio range, so a
	// flap truncates the contact rather than toggling it.
	LinkFlapMeanUp float64

	// BandwidthJitterLo/Hi, when set, scale each contact's bandwidth by a
	// per-contact multiplier drawn uniformly from [Lo, Hi]. Both zero
	// disables jitter; Lo = Hi = 1 is an explicit no-op (useful for
	// isolation tests).
	BandwidthJitterLo float64
	BandwidthJitterHi float64

	// Churn crashes and reboots nodes.
	Churn Churn

	// BlackHoleFraction and SelfishFraction of the population are assigned
	// the corresponding Role (deterministically, from the fault stream).
	// The fractions must sum to at most 1.
	BlackHoleFraction float64
	SelfishFraction   float64
}

// Churn parameterizes node crash/reboot cycling: a node stays up for
// Exp(MeanUp) seconds, goes dark for Exp(MeanDown) seconds (links cut,
// radio off), then reboots and repeats.
type Churn struct {
	// MeanUp is the mean uptime in seconds; 0 disables churn.
	MeanUp float64
	// MeanDown is the mean outage duration in seconds. Required when
	// MeanUp > 0.
	MeanDown float64
	// WipeOnReboot loses the node's buffer contents and dropped-list state
	// across the outage (a cold restart instead of a radio blackout).
	WipeOnReboot bool
	// Groups optionally restricts churn to the named scenario groups
	// (config.Scenario.Groups). Empty means every node churns.
	Groups []string
}

// Enabled reports whether churn is active.
func (c Churn) Enabled() bool { return c.MeanUp > 0 }

// Enabled reports whether any fault model is configured. Note that a
// pinned-to-1 bandwidth jitter counts as enabled (it draws, harmlessly).
func (c Config) Enabled() bool {
	return c.TransferLossProb > 0 ||
		c.LinkFlapMeanUp > 0 ||
		c.BandwidthJitterLo != 0 || c.BandwidthJitterHi != 0 ||
		c.Churn.Enabled() ||
		c.BlackHoleFraction > 0 || c.SelfishFraction > 0
}

// Validate checks the configuration. groupNames lists the scenario's
// declared node groups (nil for homogeneous scenarios); churn group
// references are checked against it.
func (c Config) Validate(groupNames []string) error {
	var errs []error
	add := func(format string, args ...any) { errs = append(errs, fmt.Errorf(format, args...)) }
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"TransferLossProb", c.TransferLossProb},
		{"LinkFlapMeanUp", c.LinkFlapMeanUp},
		{"BandwidthJitterLo", c.BandwidthJitterLo},
		{"BandwidthJitterHi", c.BandwidthJitterHi},
		{"Churn.MeanUp", c.Churn.MeanUp},
		{"Churn.MeanDown", c.Churn.MeanDown},
		{"BlackHoleFraction", c.BlackHoleFraction},
		{"SelfishFraction", c.SelfishFraction},
	} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			add("faults: %s %v must be finite", f.name, f.v)
		}
	}
	if c.TransferLossProb < 0 || c.TransferLossProb > 1 {
		add("faults: transfer loss probability %v must be in [0,1]", c.TransferLossProb)
	}
	if c.LinkFlapMeanUp < 0 {
		add("faults: link flap mean up-time %v must be non-negative", c.LinkFlapMeanUp)
	}
	if c.BandwidthJitterLo != 0 || c.BandwidthJitterHi != 0 {
		if c.BandwidthJitterLo <= 0 || c.BandwidthJitterHi < c.BandwidthJitterLo {
			add("faults: bandwidth jitter [%v,%v] must satisfy 0 < lo <= hi",
				c.BandwidthJitterLo, c.BandwidthJitterHi)
		}
	}
	if c.Churn.MeanUp < 0 || c.Churn.MeanDown < 0 {
		add("faults: churn means must be non-negative")
	}
	if c.Churn.MeanUp > 0 && c.Churn.MeanDown <= 0 {
		add("faults: churn needs MeanDown > 0 when MeanUp is set")
	}
	if len(c.Churn.Groups) > 0 {
		if c.Churn.MeanUp <= 0 {
			add("faults: churn groups named but churn disabled (MeanUp = 0)")
		}
		declared := make(map[string]bool, len(groupNames))
		for _, g := range groupNames {
			declared[g] = true
		}
		for _, g := range c.Churn.Groups {
			if !declared[g] {
				add("faults: churn group %q not declared in scenario groups", g)
			}
		}
	}
	if c.BlackHoleFraction < 0 || c.BlackHoleFraction > 1 {
		add("faults: black-hole fraction %v must be in [0,1]", c.BlackHoleFraction)
	}
	if c.SelfishFraction < 0 || c.SelfishFraction > 1 {
		add("faults: selfish fraction %v must be in [0,1]", c.SelfishFraction)
	}
	if c.BlackHoleFraction >= 0 && c.SelfishFraction >= 0 &&
		c.BlackHoleFraction+c.SelfishFraction > 1 {
		add("faults: black-hole + selfish fractions %v exceed 1",
			c.BlackHoleFraction+c.SelfishFraction)
	}
	return errors.Join(errs...)
}

// Injector is the runtime fault model of one simulation. A nil *Injector is
// the disabled state: every method is nil-safe and returns the benign
// answer without drawing or allocating.
type Injector struct {
	cfg Config

	// One independent substream per model, so enabling or tuning one model
	// never shifts another's draw sequence.
	loss   *rng.Stream
	flap   *rng.Stream
	jitter *rng.Stream
	churn  *rng.Stream

	roles     []Role // nil when no adversary fractions are set
	churnable []bool // nil means every node churns
}

// New builds an injector from cfg, deriving per-model substreams from
// stream (the run's dedicated "fault" split). churnable optionally marks
// which nodes are subject to churn (nil = all); it is ignored when churn is
// off. New returns nil when cfg is entirely disabled — the zero-cost path.
func New(cfg Config, stream *rng.Stream, nodes int, churnable []bool) *Injector {
	if !cfg.Enabled() {
		return nil
	}
	in := &Injector{
		cfg:    cfg,
		loss:   stream.Split("loss"),
		flap:   stream.Split("flap"),
		jitter: stream.Split("jitter"),
		churn:  stream.Split("churn"),
	}
	if cfg.Churn.Enabled() {
		in.churnable = churnable
	}
	if cfg.BlackHoleFraction > 0 || cfg.SelfishFraction > 0 {
		in.roles = assignRoles(stream.Split("roles"), nodes,
			cfg.BlackHoleFraction, cfg.SelfishFraction)
	}
	return in
}

// assignRoles picks exactly round(frac·n) nodes per adversarial role via a
// random permutation, so the adversary population is deterministic in size
// and placement for a given seed.
func assignRoles(s *rng.Stream, nodes int, blackFrac, selfishFrac float64) []Role {
	roles := make([]Role, nodes)
	nBlack := int(blackFrac*float64(nodes) + 0.5)
	nSelfish := int(selfishFrac*float64(nodes) + 0.5)
	if nBlack+nSelfish > nodes {
		nSelfish = nodes - nBlack
	}
	perm := s.Perm(nodes)
	for i := 0; i < nBlack; i++ {
		roles[perm[i]] = RoleBlackHole
	}
	for i := nBlack; i < nBlack+nSelfish; i++ {
		roles[perm[i]] = RoleSelfish
	}
	return roles
}

// LoseTransfer draws whether the transfer that just completed on the wire
// is discarded by the receiver. No draw happens at zero intensity.
func (in *Injector) LoseTransfer() bool {
	if in == nil || in.cfg.TransferLossProb <= 0 {
		return false
	}
	return in.loss.Bool(in.cfg.TransferLossProb)
}

// FlapEnabled reports whether link flapping is configured.
func (in *Injector) FlapEnabled() bool { return in != nil && in.cfg.LinkFlapMeanUp > 0 }

// FlapAfter draws the forced-down delay for a contact that just came up.
// ok is false when link flapping is disabled (no draw).
func (in *Injector) FlapAfter() (delay float64, ok bool) {
	if in == nil || in.cfg.LinkFlapMeanUp <= 0 {
		return 0, false
	}
	return in.flap.Exp(in.cfg.LinkFlapMeanUp), true
}

// BandwidthScale draws the per-contact bandwidth multiplier, or returns
// exactly 1 (no draw) when jitter is disabled.
func (in *Injector) BandwidthScale() float64 {
	if in == nil || (in.cfg.BandwidthJitterLo == 0 && in.cfg.BandwidthJitterHi == 0) {
		return 1
	}
	return in.jitter.Uniform(in.cfg.BandwidthJitterLo, in.cfg.BandwidthJitterHi)
}

// ChurnEnabled reports whether node churn is active.
func (in *Injector) ChurnEnabled() bool {
	return in != nil && in.cfg.Churn.Enabled()
}

// Churns reports whether node id is subject to churn.
func (in *Injector) Churns(id int) bool {
	if !in.ChurnEnabled() {
		return false
	}
	return in.churnable == nil || in.churnable[id]
}

// NextUptime draws how long a node stays up before its next crash.
func (in *Injector) NextUptime() float64 { return in.churn.Exp(in.cfg.Churn.MeanUp) }

// NextOutage draws how long a crashed node stays dark.
func (in *Injector) NextOutage() float64 { return in.churn.Exp(in.cfg.Churn.MeanDown) }

// WipeOnReboot reports whether reboots lose buffer and dropped-list state.
func (in *Injector) WipeOnReboot() bool { return in != nil && in.cfg.Churn.WipeOnReboot }

// Role returns node id's behavioural role (RoleHonest on the nil injector
// or when no adversary is configured).
func (in *Injector) Role(id int) Role {
	if in == nil || in.roles == nil {
		return RoleHonest
	}
	return in.roles[id]
}
