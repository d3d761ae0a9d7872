package routing

import (
	"fmt"

	"sdsrp/internal/fault"
	"sdsrp/internal/msg"
	"sdsrp/internal/obs"
	"sdsrp/internal/policy"
)

// Offer is a proposed transfer of the sender's copy S with semantics Kind.
type Offer struct {
	S    *msg.Stored
	Kind Kind
}

// NextOffer picks the next transfer from h to peer: the highest-priority
// eligible message under the host's buffer-management policy, exactly as
// the paper's Algorithm 1 schedules ("return ID_S", the top-priority
// message). Deliveries get no special treatment — a wait-phase copy meeting
// its destination still has to win the priority ordering, which is
// precisely what sinks Spray-and-Wait-C in the paper's evaluation (its
// deliverable copies always rank last). Messages for which skip returns
// true are ignored (the network layer uses this to avoid re-offering
// messages refused earlier in the same contact). ok is false when nothing
// is eligible. One pass scores each offerable copy once, in buffer order,
// and keeps the copy that policy.SendsBefore the rest.
func (h *Host) NextOffer(peer *Host, skip func(msg.ID) bool) (Offer, bool) {
	now := h.env.clock()
	var best Offer
	var bestScore float64
	for _, s := range h.buf.Items() {
		if s.M.Expired(now) || (skip != nil && skip(s.M.ID)) {
			continue
		}
		kind, ok := h.proto.Eligible(h, peer, s)
		if !ok {
			continue
		}
		score := h.pol.SendScore(h, s)
		if best.S == nil || policy.SendsBefore(score, s.M.ID, bestScore, best.S.M.ID) {
			best, bestScore = Offer{S: s, Kind: kind}, score
		}
	}
	return best, best.S != nil
}

// Phantom builds the copy the receiver would hold if the offer completed at
// time now, without mutating the sender's copy. The receiver's policy
// evaluates this phantom when planning eviction.
func (o Offer) Phantom(now float64) *msg.Stored {
	switch o.Kind {
	case KindSpray:
		give := o.S.Copies / 2
		history := make([]float64, len(o.S.SprayTimes)+1)
		copy(history, o.S.SprayTimes)
		history[len(history)-1] = now
		return &msg.Stored{M: o.S.M, Copies: give, ReceivedAt: now,
			Hops: o.S.Hops + 1, SprayTimes: history}
	case KindSpraySource:
		history := make([]float64, len(o.S.SprayTimes)+1)
		copy(history, o.S.SprayTimes)
		history[len(history)-1] = now
		return &msg.Stored{M: o.S.M, Copies: 1, ReceivedAt: now,
			Hops: o.S.Hops + 1, SprayTimes: history}
	case KindRelay:
		return o.S.Relay(now, 1)
	case KindHandoff:
		return o.S.Relay(now, o.S.Copies)
	case KindDelivery:
		// Deliveries are consumed, not stored.
		return &msg.Stored{M: o.S.M, Copies: o.S.Copies, ReceivedAt: now, Hops: o.S.Hops + 1}
	default:
		//lint:invariant Kind is assigned only from the four KindX constants by the offer constructors
		panic(fmt.Sprintf("routing: phantom for unknown kind %v", o.Kind))
	}
}

// PreAccept is the receiver-side preflight run before any bytes move.
// Deliveries are always welcome. A replication is rejected when the
// receiver's dropped list contains the message (the paper's "nodes reject
// receiving the message already in their dropped lists" — re-checked here
// because gossip merged mid-contact may postdate the Eligible check) and,
// only in preflight-eviction mode (an ablation; the paper's Algorithm 1
// receives first and drops after), when the receiver's buffer could not
// admit the phantom under its eviction policy. PreAccept does not mutate
// the buffer.
func (h *Host) PreAccept(o Offer, now float64) bool {
	if o.Kind == KindDelivery {
		return true
	}
	// A selfish node refuses to carry anyone else's traffic (it still
	// accepts deliveries above and originates its own messages).
	if h.role == fault.RoleSelfish {
		return false
	}
	if h.env.useDrops && h.drops.RejectsIncoming(o.S.M.ID) {
		return false
	}
	if !h.env.preflight {
		return true
	}
	_, _, _, ok := h.env.ord.PlanEviction(h.pol, h, &h.buf, o.Phantom(now))
	return ok
}

// CommitTransfer finalizes a completed transfer between sender and
// receiver. It performs the sender-side token accounting, the
// receiver-side eviction + store, and emits the events the run's counters
// fold. It returns false when the completed bytes were wasted (the
// receiver acquired the message through a third party mid-transfer, or its
// buffer filled with higher-priority traffic).
func CommitTransfer(sender, receiver *Host, o Offer, now float64) bool {
	id := o.S.M.ID

	if o.Kind == KindDelivery {
		if receiver.received[id] {
			// A second copy arrived through another path mid-transfer.
			sender.env.tracer.Emit(obs.Event{T: now, Type: obs.MessageRefused, Msg: id,
				Node: sender.id, Peer: receiver.id})
			return false
		}
		receiver.markReceived(id)
		if receiver.acks != nil {
			receiver.acks.Add(id)
		}
		sender.env.tracer.Emit(obs.Event{T: now, Type: obs.MessageDelivered, Msg: id,
			Node: sender.id, Peer: receiver.id, Hops: o.S.Hops + 1,
			Latency: now - o.S.M.Created})
		// The delivering node knows the destination is served: its copy is
		// useless now.
		sender.buf.Remove(id)
		return true
	}

	// Replication kinds. Re-validate: the receiver's state may have changed
	// during the transfer. A duplicate or dropped-list hit wastes the
	// transfer without touching the sender's tokens (header-level dedup).
	if receiver.buf.Has(id) || receiver.received[id] ||
		(receiver.env.useDrops && receiver.drops.RejectsIncoming(id)) {
		sender.env.tracer.Emit(obs.Event{T: now, Type: obs.MessageRefused, Msg: id,
			Node: sender.id, Peer: receiver.id})
		return false
	}
	incoming := o.Phantom(now)

	// The bytes moved: the sender's token accounting is final regardless of
	// what the receiver's buffer policy decides next (Algorithm 1 receives
	// first, then drops — a discarded newcomer destroys the sprayed
	// tokens).
	switch o.Kind {
	case KindSpray:
		// incoming is the receiver's half of the split; the sender's half
		// must hand over the same ⌊C/2⌋ tokens.
		if give := o.S.SplitSender(now); give != incoming.Copies {
			//lint:invariant Phantom and SplitSender compute ⌊C/2⌋ from the same copy; divergence means the token ledger is corrupt
			panic("routing: phantom/split divergence")
		}
	case KindSpraySource:
		o.S.Copies--
		o.S.SprayTimes = append(o.S.SprayTimes, now)
	case KindRelay:
		// No sender-side token change.
	case KindHandoff:
		sender.buf.Remove(id)
	}
	sender.env.tracer.Emit(obs.Event{T: now, Type: obs.MessageForwarded, Msg: id,
		Node: sender.id, Peer: receiver.id, Copies: incoming.Copies,
		Kind: o.Kind.String()})

	// A black-hole receiver swallows the copy after the sender committed:
	// tokens and bandwidth are spent, nothing is stored, and — unlike a
	// policy drop — no dropped-list record betrays the attacker.
	if receiver.role == fault.RoleBlackHole {
		receiver.env.tracer.Emit(obs.Event{T: now, Type: obs.TransferLost, Msg: id,
			Node: sender.id, Peer: receiver.id})
		return false
	}

	victims, scores, inScore, ok := receiver.env.ord.PlanEviction(receiver.pol, receiver, &receiver.buf, incoming)
	if !ok {
		// The newcomer is the weakest: dropped on arrival. It enters the
		// receiver's dropped list (enabling SDSRP's future pre-rejection)
		// and counts as a policy drop.
		receiver.env.tracer.Emit(obs.Event{T: now, Type: obs.MessageDropped,
			Msg: id, Node: receiver.id, Priority: inScore})
		if receiver.env.useDrops {
			receiver.drops.RecordDrop(id, now)
		}
		return false
	}
	for i, v := range victims {
		receiver.DropMessage(v, scores[i], now)
	}
	if err := receiver.buf.Add(incoming); err != nil {
		//lint:invariant PlanEviction just freed enough bytes for incoming in this same event; Add cannot overflow
		panic(fmt.Sprintf("routing: add after eviction: %v", err))
	}
	return true
}
