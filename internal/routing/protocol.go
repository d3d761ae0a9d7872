package routing

import "sdsrp/internal/msg"

// Kind classifies a transfer.
type Kind int

// Transfer kinds.
const (
	// KindDelivery hands the message to its destination (consumed there;
	// the sender deletes its copy on confirmation).
	KindDelivery Kind = iota
	// KindSpray is a binary spray: the receiver gets ⌊C/2⌋ tokens.
	KindSpray
	// KindSpraySource is source spray: the receiver gets exactly one token.
	KindSpraySource
	// KindRelay copies the message without token accounting (Epidemic).
	KindRelay
	// KindHandoff moves the copy to the receiver and deletes it at the
	// sender (Spray-and-Focus focus phase).
	KindHandoff
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindDelivery:
		return "delivery"
	case KindSpray:
		return "spray"
	case KindSpraySource:
		return "spray-source"
	case KindRelay:
		return "relay"
	case KindHandoff:
		return "handoff"
	default:
		return "unknown"
	}
}

// Protocol decides replication eligibility. Buffer management is orthogonal
// (policy.Policy); the protocol only answers "may a offer s to b, and how".
// Stateful protocols (PRoPHET family) need one instance per host;
// ProtocolByName always returns a fresh instance.
type Protocol interface {
	Name() string
	// Eligible reports whether sender a may offer its copy s to peer b.
	Eligible(a, b *Host, s *msg.Stored) (Kind, bool)
}

// ContactHook is implemented by protocols that maintain per-node state from
// contact history (e.g. PRoPHET predictabilities). The host invokes it on
// every link-up.
type ContactHook interface {
	OnContact(self, peer *Host, now float64)
}

// deliverable handles the common delivery test: b is the destination and
// has not consumed the message yet.
func deliverable(b *Host, s *msg.Stored) bool {
	return s.M.Dest == b.id && !b.received[s.M.ID]
}

// peerWants is the common replication test: the peer does not hold the
// message, is not its (already-served) destination, and does not reject it
// via its dropped list.
func peerWants(b *Host, s *msg.Stored) bool {
	if b.buf.Has(s.M.ID) || b.received[s.M.ID] || b.id == s.M.Source {
		return false
	}
	if b.useDrops && b.drops.RejectsIncoming(s.M.ID) {
		return false
	}
	if b.acks != nil && b.acks.Has(s.M.ID) {
		return false
	}
	return true
}

// SprayAndWait is the paper's protocol. Binary mode halves the token count
// at each spray (Spyropoulos et al.'s recommended variant, used throughout
// the paper); source mode hands out single tokens from the source only.
type SprayAndWait struct {
	Binary bool
}

// Name implements Protocol.
func (p SprayAndWait) Name() string {
	if p.Binary {
		return "spray-and-wait"
	}
	return "spray-and-wait-source"
}

// Eligible implements Protocol.
func (p SprayAndWait) Eligible(a, b *Host, s *msg.Stored) (Kind, bool) {
	if deliverable(b, s) {
		return KindDelivery, true
	}
	if s.Copies <= 1 || !peerWants(b, s) {
		return 0, false
	}
	if p.Binary {
		return KindSpray, true
	}
	// Source mode: only the source distributes tokens.
	if a.id != s.M.Source {
		return 0, false
	}
	return KindSpraySource, true
}

// Epidemic replicates to every peer missing the message (Vahdat & Becker).
type Epidemic struct{}

// Name implements Protocol.
func (Epidemic) Name() string { return "epidemic" }

// Eligible implements Protocol.
func (Epidemic) Eligible(_, b *Host, s *msg.Stored) (Kind, bool) {
	if deliverable(b, s) {
		return KindDelivery, true
	}
	if !peerWants(b, s) {
		return 0, false
	}
	return KindRelay, true
}

// DirectDelivery only ever hands the message to its destination.
type DirectDelivery struct{}

// Name implements Protocol.
func (DirectDelivery) Name() string { return "direct" }

// Eligible implements Protocol.
func (DirectDelivery) Eligible(_, b *Host, s *msg.Stored) (Kind, bool) {
	if deliverable(b, s) {
		return KindDelivery, true
	}
	return 0, false
}

// SprayAndFocus sprays binarily, but instead of waiting with the last
// token it hands the copy off to a relay that met the destination more
// recently than the current carrier (Spyropoulos et al. 2007, with
// last-encounter recency as the utility function). The recency table is
// per-node state, so each host needs its own instance; ProtocolByName
// returns fresh ones.
type SprayAndFocus struct {
	// MinGain is the required recency advantage in seconds before a
	// handoff happens, damping ping-pong handoffs.
	MinGain float64
	// last records this node's latest link-up time per peer.
	last map[int]float64
}

// NewSprayAndFocus returns an instance with an empty recency table.
func NewSprayAndFocus(minGain float64) *SprayAndFocus {
	return &SprayAndFocus{MinGain: minGain, last: make(map[int]float64)}
}

// Name implements Protocol.
func (*SprayAndFocus) Name() string { return "spray-and-focus" }

// OnContact implements ContactHook: it refreshes the recency table.
func (p *SprayAndFocus) OnContact(_, peer *Host, now float64) {
	p.last[peer.id] = now
}

// lastContactOf returns when h last started a contact with node, and
// whether it ever has; hosts not running Spray-and-Focus keep no record.
func lastContactOf(h *Host, node int) (float64, bool) {
	p, ok := h.proto.(*SprayAndFocus)
	if !ok {
		return 0, false
	}
	t, ok := p.last[node]
	return t, ok
}

// Eligible implements Protocol.
func (p *SprayAndFocus) Eligible(a, b *Host, s *msg.Stored) (Kind, bool) {
	if deliverable(b, s) {
		return KindDelivery, true
	}
	if !peerWants(b, s) {
		return 0, false
	}
	if s.Copies > 1 {
		return KindSpray, true
	}
	// Focus phase: forward the lone token toward fresher information.
	bt, bok := lastContactOf(b, s.M.Dest)
	if !bok {
		return 0, false
	}
	at, aok := lastContactOf(a, s.M.Dest)
	if !aok || bt-at > p.MinGain {
		return KindHandoff, true
	}
	return 0, false
}

// ProtocolByName resolves "spray-and-wait" (binary), "spray-and-wait-source",
// "epidemic", "direct", "spray-and-focus", "prophet", "spray-and-wait-predict".
func ProtocolByName(name string) (Protocol, bool) {
	switch name {
	case "spray-and-wait", "snw", "":
		return SprayAndWait{Binary: true}, true
	case "spray-and-wait-source", "snw-source":
		return SprayAndWait{Binary: false}, true
	case "epidemic":
		return Epidemic{}, true
	case "direct":
		return DirectDelivery{}, true
	case "spray-and-focus", "snf":
		return NewSprayAndFocus(60), true
	case "prophet":
		return NewProphet(), true
	case "spray-and-wait-predict", "snw-predict":
		return NewSprayAndWaitPredict(), true
	}
	return nil, false
}
