// Package routing implements DTN hosts and routing protocols.
//
// A Host owns one node's buffer, buffer-management policy, protocol state,
// and SDSRP estimators (intermeeting-rate estimator and dropped-list
// table). The network layer (internal/network) asks hosts what to transfer
// on each contact (NextOffer / PreAccept) and commits finished transfers
// (CommitTransfer); the world layer (internal/world) generates traffic and
// drives TTL expiry.
//
//lint:shard-safe host and ack state is per-run and per-node, and ground truth is the run's own ledger; no package-level state
package routing

import (
	"fmt"

	"sdsrp/internal/buffer"
	"sdsrp/internal/core"
	"sdsrp/internal/fault"
	"sdsrp/internal/msg"
	"sdsrp/internal/obs"
	"sdsrp/internal/policy"
)

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
	// Tracer receives every lifecycle event the host emits; the run's
	// counters are folded from it (world.Build passes the run's
	// stats.Collector, fanned out with any user sink). Required.
	Tracer obs.Tracer
	// Truth backs TrueSeen/TrueLive with the ground truth of a ledger that
	// Tracer also feeds (world.Build attaches one only when the policy
	// reads truth); may be nil (both then fall back to the estimates).
	Truth *obs.Ledger
	// Role is the node's behaviour under the fault layer's adversary model:
	// honest (default), black-hole (accepts copies, silently discards them),
	// or selfish (refuses to relay for others).
	Role fault.Role
}

// Host is one DTN node's full protocol state. Its buffer and dropped-list
// table live inside it, so a fleet's hosts can be one slab (InitHost).
type Host struct {
	id    int
	nodes int
	buf   buffer.Buffer
	pol   policy.Policy
	proto Protocol
	// ord holds the eviction-ranking scratch buffers, making eviction
	// planning allocation-free at steady state.
	ord policy.Orderer

	rate      core.RateSource
	rateObs   core.ContactObserver // nil when rate is a fixed oracle
	useDrops  bool                 // drops is in use (HostConfig.UseDropList)
	preflight bool
	drops     core.DropTable
	acks      *AckTable

	clock  func() float64
	truth  *obs.Ledger
	tracer obs.Tracer
	role   fault.Role

	// received marks messages this host has consumed as their destination;
	// nil until the first delivery.
	received map[msg.ID]bool
}

// NewHost builds a host. It panics on an incomplete config — hosts are
// constructed by the world builder, so a bad config is a programming error.
func NewHost(cfg HostConfig) *Host {
	h := new(Host)
	InitHost(h, cfg)
	return h
}

// InitHost fills h in place as NewHost would build it, for callers that
// keep a fleet's hosts in one slab (world.Build). h must not be copied
// afterwards.
func InitHost(h *Host, cfg HostConfig) {
	if cfg.Policy == nil || cfg.Proto == nil || cfg.Clock == nil || cfg.Tracer == nil {
		//lint:invariant hosts are wired by world.Build from a validated scenario; a nil dependency is builder misuse, not input
		panic(fmt.Sprintf("routing: incomplete host config for node %d", cfg.ID))
	}
	*h = Host{
		id:        cfg.ID,
		nodes:     cfg.Nodes,
		pol:       cfg.Policy,
		proto:     cfg.Proto,
		rate:      cfg.Rate,
		useDrops:  cfg.UseDropList,
		preflight: cfg.PreflightEviction,
		clock:     cfg.Clock,
		truth:     cfg.Truth,
		tracer:    cfg.Tracer,
		role:      cfg.Role,
	}
	buffer.Init(&h.buf, cfg.Buffer)
	if obs, ok := cfg.Rate.(core.ContactObserver); ok {
		h.rateObs = obs
	}
	if cfg.UseDropList {
		core.InitDropTable(&h.drops, cfg.ID)
	}
	if cfg.UseAcks {
		h.acks = NewAckTable()
	}
}

// ID returns the node id.
func (h *Host) ID() int { return h.id }

// Role returns the node's adversarial role (RoleHonest normally).
func (h *Host) Role() fault.Role { return h.role }

// Buffer exposes the host's store (read-mostly; mutate only through host
// methods).
func (h *Host) Buffer() *buffer.Buffer { return &h.buf }

// Policy returns the buffer-management strategy.
func (h *Host) Policy() policy.Policy { return h.pol }

// Received reports whether this host, as destination, has consumed id.
func (h *Host) Received(id msg.ID) bool { return h.received[id] }

// markReceived records that this host consumed id as its destination,
// making the received set on the first delivery.
func (h *Host) markReceived(id msg.ID) {
	if h.received == nil {
		h.received = make(map[msg.ID]bool)
	}
	h.received[id] = true
}

// DropTable returns the host's gossip table (nil when disabled).
func (h *Host) DropTable() *core.DropTable {
	if !h.useDrops {
		return nil
	}
	return &h.drops
}

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

// SeenEstimate implements policy.View with the Eq. 15 lineage estimator.
func (h *Host) SeenEstimate(s *msg.Stored) float64 {
	return float64(h.seen(s))
}

// LiveEstimate implements policy.View with Eq. 14, n̂ = m̂ + 1 − d̂.
func (h *Host) LiveEstimate(s *msg.Stored) float64 {
	dropped := 0
	if h.useDrops {
		dropped = h.drops.DroppedCount(s.M.ID)
	}
	return float64(core.LiveCopies(h.seen(s), dropped, h.nodes))
}

// seen is m̂ for s at the current time: a walk over the copy's split
// times, at most ⌈log2 L⌉ of them under binary spray (L−1 under source
// spray).
func (h *Host) seen(s *msg.Stored) int {
	return core.EstimateSeen(s.SprayTimes, s.Copies, h.clock(), h.EIMin(), h.nodes)
}

// TrueSeen implements policy.View via the truth ledger, falling back to the
// estimate without one.
func (h *Host) TrueSeen(s *msg.Stored) float64 {
	if h.truth == nil {
		return h.SeenEstimate(s)
	}
	return float64(h.truth.Seen(s.M.ID, h.id, h.buf.Has(s.M.ID)))
}

// TrueLive implements policy.View via the truth ledger, falling back to the
// estimate without one.
func (h *Host) TrueLive(s *msg.Stored) float64 {
	if h.truth == nil {
		return h.LiveEstimate(s)
	}
	return float64(h.truth.Live(s.M.ID, h.id, h.buf.Has(s.M.ID)))
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
	if h.useDrops && peer.useDrops {
		h.drops.MergeFrom(&peer.drops)
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
	h.tracer.Emit(obs.Event{T: now, Type: obs.MessageCreated, Msg: m.ID,
		Node: m.Source, Peer: m.Dest, Size: m.Size, Copies: m.InitialCopies})
	s := msg.NewSourceCopy(m)
	victims, scores, inScore, ok := h.ord.PlanEviction(h.pol, h, &h.buf, s)
	if !ok {
		h.tracer.Emit(obs.Event{T: now, Type: obs.MessageDropped, Msg: m.ID,
			Node: h.id, Priority: inScore})
		return false
	}
	for i, v := range victims {
		h.DropMessage(v, scores[i], now)
	}
	if err := h.buf.Add(s); err != nil {
		//lint:invariant PlanEviction just freed enough bytes for s in this same event; Add cannot overflow
		panic(fmt.Sprintf("routing: originate after eviction: %v", err))
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
	h.tracer.Emit(obs.Event{T: now, Type: obs.MessageDropped, Msg: s.M.ID,
		Node: h.id, Priority: score})
	if h.useDrops {
		h.drops.RecordDrop(s.M.ID, now)
	}
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
		h.tracer.Emit(obs.Event{T: now, Type: obs.MessagePurged, Msg: s.M.ID,
			Node: h.id, Kind: "ack"})
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
		h.tracer.Emit(obs.Event{T: now, Type: obs.MessagePurged, Msg: s.M.ID,
			Node: h.id, Kind: "wipe"})
	}
	if h.useDrops {
		h.drops.Reset()
	}
	return len(dead)
}

// ExpireMessages removes every dead message at time now and has the gossip
// tables forget them (an expired message can no longer influence any
// decision). Forgetting the highest expired id declares every lower id dead
// too, which holds because ids follow creation order and every message
// shares one TTL; the sweep checks that no surviving copy contradicts it.
// It returns the number removed.
func (h *Host) ExpireMessages(now float64) int {
	dead := h.buf.Expired(now, nil)
	if len(dead) == 0 {
		return 0
	}
	var last msg.ID
	for _, s := range dead {
		h.buf.Remove(s.M.ID)
		h.tracer.Emit(obs.Event{T: now, Type: obs.MessageExpired, Msg: s.M.ID, Node: h.id})
		last = max(last, s.M.ID)
	}
	for _, s := range h.buf.Items() {
		if s.M.ID < last {
			//lint:invariant world traffic numbers messages in creation order with one scenario TTL, so an older id cannot outlive a newer one
			panic(fmt.Sprintf("routing: node %d keeps message %d after message %d expired", h.id, s.M.ID, last))
		}
	}
	if h.useDrops {
		h.drops.Forget(last)
	}
	if h.acks != nil {
		h.acks.Forget(last)
	}
	return len(dead)
}
