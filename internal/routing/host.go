// Package routing implements DTN hosts and routing protocols.
//
// A Host owns one node's buffer, buffer-management policy, protocol state,
// and SDSRP estimators (intermeeting-rate estimator and dropped-list
// table). The network layer (internal/network) asks hosts what to transfer
// on each contact (NextOffer / PreAccept) and commits finished transfers
// (CommitTransfer); the world layer (internal/world) generates traffic and
// drives TTL expiry.
//
//lint:shard-safe host, ack, and tracker state is per-run and per-node; no package-level state
package routing

import (
	"fmt"

	"sdsrp/internal/buffer"
	"sdsrp/internal/core"
	"sdsrp/internal/fault"
	"sdsrp/internal/msg"
	"sdsrp/internal/obs"
	"sdsrp/internal/policy"
	"sdsrp/internal/stats"
)

// Oracle supplies ground-truth message spread for oracle policies and for
// ablation experiments. Implemented by the world's tracker.
type Oracle interface {
	// Seen returns the true m_i: nodes other than the source that have
	// carried message id.
	Seen(id msg.ID) int
	// Live returns the true n_i: nodes currently holding a copy.
	Live(id msg.ID) int
}

// HostConfig assembles a Host.
type HostConfig struct {
	ID     int
	Nodes  int // N, network size
	Buffer int64
	Policy policy.Policy
	Proto  Protocol
	// Rate supplies λ: a per-node *core.LambdaEstimator (distributed
	// operation) or core.FixedRate (oracle ablation).
	Rate core.RateSource
	// UseDropList enables the Fig. 5 dropped-list gossip (SDSRP's d̂_i
	// estimator and re-receipt rejection).
	UseDropList bool
	// UseAcks enables the immunization extension: delivered-message ACKs
	// gossip on contact; nodes purge and refuse acknowledged messages. The
	// paper's model runs without it (Section III-A); see AckTable.
	UseAcks bool
	// PreflightEviction makes receivers run the eviction plan BEFORE any
	// bytes move and refuse transfers whose payload would be the victim.
	// The default (false) is the paper's Algorithm 1: receive first, then
	// drop the weakest — wasting the bandwidth and spray tokens the paper's
	// analysis charges to the heuristic policies.
	PreflightEviction bool
	// Clock returns the current simulation time.
	Clock func() float64
	// Collector receives the run's counters. Required.
	Collector *stats.Collector
	// Tracker records ground-truth spread; may be nil.
	Tracker *Tracker
	// Oracle backs TrueSeen/TrueLive; may be nil (falls back to estimates).
	Oracle Oracle
	// Tracer receives structured lifecycle events; nil disables tracing at
	// zero cost.
	Tracer obs.Tracer
	// Role is the node's behaviour under the fault layer's adversary model:
	// honest (default), black-hole (accepts copies, silently discards them),
	// or selfish (refuses to relay for others).
	Role fault.Role
}

// Host is one DTN node's full protocol state.
type Host struct {
	id    int
	nodes int
	buf   *buffer.Buffer
	pol   policy.Policy
	proto Protocol
	// ord holds the policy-ordering scratch buffers, making per-contact
	// scheduling and eviction planning allocation-free at steady state.
	ord policy.Orderer

	rate      core.RateSource
	rateObs   core.ContactObserver // nil when rate is a fixed oracle
	drops     *core.DropTable
	useDrops  bool
	preflight bool
	acks      *AckTable

	clock     func() float64
	collector *stats.Collector
	tracker   *Tracker
	oracle    Oracle
	tracer    obs.Tracer
	role      fault.Role

	// seenMemo caches the Eq. 15 lineage estimate per stored copy. The
	// estimator walks the whole spray lineage, and a single contact scores
	// every buffered copy several times (send order, eviction plans, both
	// Eq. 10 terms) at one instant with unchanged inputs — see seenFor for
	// the keying argument.
	seenMemo map[*msg.Stored]seenEntry

	// received marks messages this host has consumed as their destination.
	received map[msg.ID]bool
}

// NewHost builds a host. It panics on an incomplete config — hosts are
// constructed by the world builder, so a bad config is a programming error.
func NewHost(cfg HostConfig) *Host {
	if cfg.Policy == nil || cfg.Proto == nil || cfg.Clock == nil || cfg.Collector == nil {
		//lint:invariant hosts are wired by world.Build from a validated scenario; a nil dependency is builder misuse, not input
		panic(fmt.Sprintf("routing: incomplete host config for node %d", cfg.ID))
	}
	h := &Host{
		id:        cfg.ID,
		nodes:     cfg.Nodes,
		buf:       buffer.New(cfg.Buffer),
		pol:       cfg.Policy,
		proto:     cfg.Proto,
		rate:      cfg.Rate,
		useDrops:  cfg.UseDropList,
		preflight: cfg.PreflightEviction,
		clock:     cfg.Clock,
		collector: cfg.Collector,
		tracker:   cfg.Tracker,
		oracle:    cfg.Oracle,
		tracer:    cfg.Tracer,
		role:      cfg.Role,
		seenMemo:  make(map[*msg.Stored]seenEntry),
		received:  make(map[msg.ID]bool),
	}
	if obs, ok := cfg.Rate.(core.ContactObserver); ok {
		h.rateObs = obs
	}
	if cfg.UseDropList {
		h.drops = core.NewDropTable(cfg.ID)
	}
	if cfg.UseAcks {
		h.acks = NewAckTable()
	}
	return h
}

// ID returns the node id.
func (h *Host) ID() int { return h.id }

// Tracer returns the host's event sink (nil when tracing is off).
func (h *Host) Tracer() obs.Tracer { return h.tracer }

// Role returns the node's adversarial role (RoleHonest normally).
func (h *Host) Role() fault.Role { return h.role }

// emit forwards ev to the tracer. The nil check is the entire disabled
// path: callers build the Event inline in the argument, so a nil tracer
// costs one branch and zero allocations.
func (h *Host) emit(ev obs.Event) {
	if h.tracer != nil {
		h.tracer.Emit(ev)
	}
}

// Buffer exposes the host's store (read-mostly; mutate only through host
// methods).
func (h *Host) Buffer() *buffer.Buffer { return h.buf }

// Policy returns the buffer-management strategy.
func (h *Host) Policy() policy.Policy { return h.pol }

// Received reports whether this host, as destination, has consumed id.
func (h *Host) Received(id msg.ID) bool { return h.received[id] }

// DropTable returns the host's gossip table (nil when disabled).
func (h *Host) DropTable() *core.DropTable { return h.drops }

// AckTable returns the host's immunization table (nil when disabled).
func (h *Host) AckTable() *AckTable { return h.acks }

// --- policy.View implementation -------------------------------------------

// Now implements policy.View.
func (h *Host) Now() float64 { return h.clock() }

// Nodes implements policy.View.
func (h *Host) Nodes() int { return h.nodes }

// Lambda implements policy.View.
func (h *Host) Lambda() float64 {
	if h.rate == nil {
		return 0
	}
	return h.rate.Lambda()
}

// EIMin implements policy.View.
func (h *Host) EIMin() float64 {
	if h.rate == nil {
		return 0
	}
	return h.rate.EIMin(h.nodes)
}

// seenEntry caches one EstimateSeen result together with the inputs that
// produced it.
type seenEntry struct {
	now, eimin float64
	copies     int
	sprayLen   int
	seen       int
}

// seenFor returns EstimateSeen(s, now) through the per-host memo.
//
// The cache is sound because EstimateSeen is a pure function of
// (SprayTimes, Copies, now, EIMin, nodes) and the key pins all of them:
// nodes is constant for the host, SprayTimes is append-only (its length
// determines its content for a given copy), and Copies plus the clock and
// rate estimate are compared directly. A hit therefore has bit-identical
// inputs and returns the bit-identical answer — the memo cannot change
// simulation behaviour, only skip the lineage walk.
func (h *Host) seenFor(s *msg.Stored) int {
	now, eimin := h.clock(), h.EIMin()
	if e, ok := h.seenMemo[s]; ok &&
		e.now == now && e.eimin == eimin &&
		e.copies == s.Copies && e.sprayLen == len(s.SprayTimes) {
		return e.seen
	}
	seen := core.EstimateSeen(s.SprayTimes, s.Copies, now, eimin, h.nodes)
	// The memo is only a cache: when stale entries (dropped copies,
	// transient phantoms) accumulate past a small multiple of the buffer
	// population, discard it wholesale rather than tracking lifetimes.
	if len(h.seenMemo) > 2*h.buf.Len()+64 {
		clear(h.seenMemo)
	}
	h.seenMemo[s] = seenEntry{now: now, eimin: eimin, copies: s.Copies,
		sprayLen: len(s.SprayTimes), seen: seen}
	return seen
}

// SeenEstimate implements policy.View with the Eq. 15 lineage estimator.
func (h *Host) SeenEstimate(s *msg.Stored) float64 {
	return float64(h.seenFor(s))
}

// LiveEstimate implements policy.View with Eq. 14, n̂ = m̂ + 1 − d̂.
func (h *Host) LiveEstimate(s *msg.Stored) float64 {
	dropped := 0
	if h.drops != nil {
		dropped = h.drops.DroppedCount(s.M.ID)
	}
	return float64(core.LiveCopies(h.seenFor(s), dropped, h.nodes))
}

// TrueSeen implements policy.View via the oracle, falling back to the
// estimate without one.
func (h *Host) TrueSeen(s *msg.Stored) float64 {
	if h.oracle == nil {
		return h.SeenEstimate(s)
	}
	return float64(h.oracle.Seen(s.M.ID))
}

// TrueLive implements policy.View via the oracle.
func (h *Host) TrueLive(s *msg.Stored) float64 {
	if h.oracle == nil {
		return h.LiveEstimate(s)
	}
	return float64(h.oracle.Live(s.M.ID))
}

var _ policy.View = (*Host)(nil)

// --- contact lifecycle ------------------------------------------------------

// OnLinkUp is called by the network layer when a contact with peer starts:
// it feeds the λ estimator, merges dropped-list and ACK gossip, and runs
// the protocol's ContactHook (PRoPHET predictabilities, Spray-and-Focus
// recency).
func (h *Host) OnLinkUp(peer *Host, now float64) {
	if h.rateObs != nil {
		h.rateObs.OnContactStart(peer.id, now)
	}
	if h.drops != nil && peer.drops != nil {
		h.drops.MergeFrom(peer.drops)
	}
	if h.acks != nil && peer.acks != nil {
		h.acks.MergeFrom(peer.acks)
		h.purgeAcked(now)
	}
	if hook, ok := h.proto.(ContactHook); ok {
		hook.OnContact(h, peer, now)
	}
}

// OnLinkDown is called when the contact with peer ends.
func (h *Host) OnLinkDown(peer *Host, now float64) {
	if h.rateObs != nil {
		h.rateObs.OnContactEnd(peer.id, now)
	}
}

// --- message lifecycle ------------------------------------------------------

// Originate injects a freshly generated message at this (source) host. The
// newcomer competes for buffer space under the host's own policy; a source
// whose buffer outranks the new message drops it on arrival. It reports
// whether the message was stored.
func (h *Host) Originate(m *msg.Message, now float64) bool {
	h.collector.MessageCreated(m.ID, m.Created)
	if h.tracker != nil {
		h.tracker.NoteCreated(m.ID, m.Source)
	}
	if h.tracer != nil {
		h.tracer.Emit(obs.Event{T: now, Type: obs.MessageCreated, Msg: m.ID,
			Node: m.Source, Peer: m.Dest, Size: m.Size, Copies: m.InitialCopies})
	}
	s := msg.NewSourceCopy(m)
	victims, scores, inScore, ok := h.ord.PlanEviction(h.pol, h, h.buf, s)
	if !ok {
		if h.tracer != nil {
			h.tracer.Emit(obs.Event{T: now, Type: obs.MessageDropped, Msg: m.ID,
				Node: h.id, Priority: inScore})
		}
		h.collector.Dropped()
		return false
	}
	for i, v := range victims {
		h.DropMessage(v, scores[i], now)
	}
	if err := h.buf.Add(s); err != nil {
		//lint:invariant PlanEviction just freed enough bytes for s in this same event; Add cannot overflow
		panic(fmt.Sprintf("routing: originate after eviction: %v", err))
	}
	if h.tracker != nil {
		h.tracker.NoteStored(m.ID, h.id)
	}
	return true
}

// DropMessage evicts s under the buffer policy: it leaves the buffer,
// enters the host's dropped list (when enabled) and counts as a policy
// drop. score is the DropScore the eviction plan ranked s by; the dropped
// event reports it.
func (h *Host) DropMessage(s *msg.Stored, score, now float64) {
	if h.buf.Remove(s.M.ID) == nil {
		return
	}
	if h.tracer != nil {
		h.tracer.Emit(obs.Event{T: now, Type: obs.MessageDropped, Msg: s.M.ID,
			Node: h.id, Priority: score})
	}
	if h.drops != nil {
		h.drops.RecordDrop(s.M.ID, now)
	}
	if h.tracker != nil {
		h.tracker.NoteRemoved(s.M.ID, h.id)
	}
	h.collector.Dropped()
}

// purgeAcked removes buffered copies of delivered messages (immunization).
func (h *Host) purgeAcked(now float64) {
	if h.acks == nil {
		return
	}
	var dead []*msg.Stored
	for _, s := range h.buf.Items() {
		if h.acks.Has(s.M.ID) {
			dead = append(dead, s)
		}
	}
	for _, s := range dead {
		h.buf.Remove(s.M.ID)
		if h.tracer != nil {
			h.tracer.Emit(obs.Event{T: now, Type: obs.MessagePurged, Msg: s.M.ID,
				Node: h.id, Kind: "ack"})
		}
		if h.tracker != nil {
			h.tracker.NoteRemoved(s.M.ID, h.id)
		}
		h.collector.AckPurged()
	}
}

// WipeState models a cold reboot after a churn outage: every buffered copy
// and the whole dropped-list table are lost. Delivered-message state
// (received set, ACKs) and the λ estimator survive — a destination does not
// forget what it consumed, and contact history is long-lived radio firmware
// state in this model. Peers still hold (and re-gossip) this node's old
// drop record. It returns the number of copies lost.
func (h *Host) WipeState(now float64) int {
	items := h.buf.Items()
	dead := make([]*msg.Stored, len(items))
	copy(dead, items) // Remove mutates the buffer's backing slice
	for _, s := range dead {
		h.buf.Remove(s.M.ID)
		if h.tracer != nil {
			h.tracer.Emit(obs.Event{T: now, Type: obs.MessagePurged, Msg: s.M.ID,
				Node: h.id, Kind: "wipe"})
		}
		if h.tracker != nil {
			h.tracker.NoteRemoved(s.M.ID, h.id)
		}
	}
	if h.drops != nil {
		h.drops.Reset()
	}
	return len(dead)
}

// ExpireMessages removes every dead message at time now and forgets their
// dropped-list records (an expired message can no longer influence any
// decision). It returns the number removed.
func (h *Host) ExpireMessages(now float64) int {
	dead := h.buf.Expired(now, nil)
	for _, s := range dead {
		h.buf.Remove(s.M.ID)
		if h.tracer != nil {
			h.tracer.Emit(obs.Event{T: now, Type: obs.MessageExpired, Msg: s.M.ID, Node: h.id})
		}
		if h.tracker != nil {
			h.tracker.NoteRemoved(s.M.ID, h.id)
		}
		if h.drops != nil {
			h.drops.Forget(s.M.ID)
		}
		if h.acks != nil {
			h.acks.Forget(s.M.ID)
		}
		h.collector.Expired()
	}
	return len(dead)
}
