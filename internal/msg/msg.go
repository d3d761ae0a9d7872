// Package msg defines DTN messages and the per-node state of a stored copy.
//
// A Message is the immutable identity of a bundle (source, destination,
// size, TTL). A Stored is one node's copy of it: the remaining spray count
// C_i, the hop count of this copy, and the lineage of binary-spray split
// times used by SDSRP's m_i estimator (paper Eq. 15 / Fig. 6).
//
//lint:shard-safe plain data types; no package state
package msg

// ID identifies a message network-wide.
type ID int32

// Message is the immutable part of a DTN bundle, shared by all copies.
type Message struct {
	ID            ID
	Source, Dest  int     // node ids
	Size          int64   // bytes
	Created       float64 // simulation seconds
	TTL           float64 // lifetime in seconds from Created
	InitialCopies int     // L in Spray-and-Wait; C in the paper's Table I
}

// Expiry returns the absolute time at which the message dies.
func (m *Message) Expiry() float64 { return m.Created + m.TTL }

// Expired reports whether the message is dead at time now.
func (m *Message) Expired(now float64) bool { return now >= m.Expiry() }

// Remaining returns R_i, the remaining TTL at time now, clamped at 0.
func (m *Message) Remaining(now float64) float64 {
	r := m.Expiry() - now
	if r < 0 {
		return 0
	}
	return r
}

// Elapsed returns T_i, the time since generation, clamped at 0.
func (m *Message) Elapsed(now float64) float64 {
	t := now - m.Created
	if t < 0 {
		return 0
	}
	return t
}

// Stored is one node's copy of a message.
type Stored struct {
	M          *Message
	Copies     int     // C_i: spray tokens held by this node
	ReceivedAt float64 // when this node obtained the copy (creation time at the source)
	Hops       int     // hops this copy has traveled from the source
	// SprayTimes is the ascending list of binary-split times along this
	// copy's lineage, from the first split at the source to the split that
	// produced (or last divided) this copy. SDSRP uses it to estimate
	// m_i(T_i) per Eq. 15.
	SprayTimes []float64
}

// NewSourceCopy returns the copy held by the source at generation time.
func NewSourceCopy(m *Message) *Stored {
	return &Stored{M: m, Copies: m.InitialCopies, ReceivedAt: m.Created}
}

// Split performs a binary spray at time now: the receiver's copy gets
// ⌊C/2⌋ tokens and the sender keeps ⌈C/2⌉. Both lineages record the split.
// Split panics if the sender has fewer than 2 tokens; wait-phase copies must
// not be sprayed.
func (s *Stored) Split(now float64) *Stored {
	give := s.SplitSender(now)
	history := make([]float64, len(s.SprayTimes))
	copy(history, s.SprayTimes)
	return &Stored{
		M:          s.M,
		Copies:     give,
		ReceivedAt: now,
		Hops:       s.Hops + 1,
		SprayTimes: history,
	}
}

// SplitSender is the sender's half of Split: s keeps ⌈C/2⌉ tokens and
// records the split at time now in its lineage. It returns ⌊C/2⌋, the
// tokens the receiver's copy gets, for callers that build that copy
// themselves. Like Split it panics on a wait-phase copy.
func (s *Stored) SplitSender(now float64) int {
	if s.Copies < 2 {
		//lint:invariant the protocol offers KindSpray only for Copies >= 2 (wait-phase copies relay or hand off)
		panic("msg: Split on a wait-phase copy")
	}
	give := s.Copies / 2
	s.Copies -= give
	s.SprayTimes = append(s.SprayTimes, now)
	return give
}

// Relay returns the copy created at a non-spraying forward (Epidemic or
// direct delivery): the receiver gets an equal view of the message with the
// hop count advanced. Token count is whatever the caller decides.
func (s *Stored) Relay(now float64, copies int) *Stored {
	history := make([]float64, len(s.SprayTimes))
	copy(history, s.SprayTimes)
	return &Stored{
		M:          s.M,
		Copies:     copies,
		ReceivedAt: now,
		Hops:       s.Hops + 1,
		SprayTimes: history,
	}
}

// WaitPhase reports whether this copy may only be delivered directly to the
// destination (single spray token left).
func (s *Stored) WaitPhase() bool { return s.Copies <= 1 }
