package routing

import (
	"math"

	"sdsrp/internal/msg"
)

// PredictTable is the PRoPHET delivery-predictability state of one node
// (Lindgren et al.): P(this, x) estimates the chance of eventually meeting
// node x, grown on direct encounters, propagated transitively, and aged
// over time. It also powers the predictability-gated spray variant the
// paper cites among Spray-and-Wait improvements (Shahid & Asif's
// multischeme spraying).
type PredictTable struct {
	p         map[int]float64
	lastAge   float64
	PInit     float64 // direct-encounter increment (default 0.75)
	Beta      float64 // transitivity damping (default 0.25)
	Gamma     float64 // aging base per AgingUnit (default 0.98)
	AgingUnit float64 // seconds per aging step (default 30)
}

// NewPredictTable returns a table with the protocol's canonical constants.
func NewPredictTable() *PredictTable {
	return &PredictTable{
		p:         make(map[int]float64),
		PInit:     0.75,
		Beta:      0.25,
		Gamma:     0.98,
		AgingUnit: 30,
	}
}

// minP is the predictability below which aging deletes an entry.
const minP = 1e-6

// P returns the predictability of meeting node x at time now: the value
// that aging the table to now would leave for x. It writes nothing.
func (t *PredictTable) P(x int, now float64) float64 {
	v := t.p[x]
	if now <= t.lastAge {
		return v
	}
	if v *= math.Pow(t.Gamma, (now-t.lastAge)/t.AgingUnit); v < minP {
		return 0
	}
	return v
}

// age decays every entry to time now in place. Only Encounter calls it, so
// a table's values depend on its contact history, never on its reads.
func (t *PredictTable) age(now float64) {
	for x := range t.p {
		if v := t.P(x, now); v > 0 {
			t.p[x] = v
		} else {
			delete(t.p, x)
		}
	}
	t.lastAge = math.Max(t.lastAge, now)
}

// Encounter ages the table (and the peer's) to now, then applies the
// direct-encounter update for peer and the transitive update through the
// peer's table.
func (t *PredictTable) Encounter(peer int, peerTable *PredictTable, now float64) {
	t.age(now)
	t.p[peer] += (1 - t.p[peer]) * t.PInit
	if peerTable == nil {
		return
	}
	peerTable.age(now)
	pab := t.p[peer]
	for x, pbx := range peerTable.p {
		if x == peer {
			continue
		}
		if v := pab * pbx * t.Beta; v > t.p[x] {
			t.p[x] = v
		}
	}
}

// Len returns the number of tracked destinations (diagnostics).
func (t *PredictTable) Len() int { return len(t.p) }

// predictTableOf fetches a host's table when its protocol carries one.
func predictTableOf(h *Host) *PredictTable {
	switch proto := h.proto.(type) {
	case *Prophet:
		return proto.table
	case *SprayAndWaitPredict:
		return proto.table
	}
	return nil
}

// Prophet is the PRoPHET router: replicate to peers with strictly higher
// delivery predictability for the destination. Each host needs its own
// instance (the table is per-node state); ProtocolByName returns fresh
// instances.
type Prophet struct {
	table *PredictTable
}

// NewProphet returns a router with an empty predictability table.
func NewProphet() *Prophet { return &Prophet{table: NewPredictTable()} }

// Name implements Protocol.
func (*Prophet) Name() string { return "prophet" }

// OnContact implements ContactHook.
func (p *Prophet) OnContact(self, peer *Host, now float64) {
	p.table.Encounter(peer.id, predictTableOf(peer), now)
}

// Eligible implements Protocol.
func (p *Prophet) Eligible(a, b *Host, s *msg.Stored) (Kind, bool) {
	if deliverable(b, s) {
		return KindDelivery, true
	}
	if !peerWants(b, s) {
		return 0, false
	}
	bt := predictTableOf(b)
	if bt == nil {
		return 0, false
	}
	now := a.clock()
	if bt.P(s.M.Dest, now) > p.table.P(s.M.Dest, now) {
		return KindRelay, true
	}
	return 0, false
}

// SprayAndWaitPredict is the predictability-gated binary spray of the
// paper's reference [20] (Shahid & Asif): spray half the tokens only to
// peers whose delivery predictability for the destination is at least the
// carrier's; the wait phase is unchanged. It avoids "identical spraying
// and blind forwarding".
type SprayAndWaitPredict struct {
	table *PredictTable
}

// NewSprayAndWaitPredict returns a fresh instance (per-host state).
func NewSprayAndWaitPredict() *SprayAndWaitPredict {
	return &SprayAndWaitPredict{table: NewPredictTable()}
}

// Name implements Protocol.
func (*SprayAndWaitPredict) Name() string { return "spray-and-wait-predict" }

// OnContact implements ContactHook.
func (p *SprayAndWaitPredict) OnContact(self, peer *Host, now float64) {
	p.table.Encounter(peer.id, predictTableOf(peer), now)
}

// Eligible implements Protocol.
func (p *SprayAndWaitPredict) Eligible(a, b *Host, s *msg.Stored) (Kind, bool) {
	if deliverable(b, s) {
		return KindDelivery, true
	}
	if s.Copies <= 1 || !peerWants(b, s) {
		return 0, false
	}
	bt := predictTableOf(b)
	if bt == nil {
		return 0, false
	}
	now := a.clock()
	// Gate: the peer must look at least as promising as the carrier; a
	// peer with no information (P=0) still receives when the carrier has
	// none either, preserving spray liveness early on.
	if bt.P(s.M.Dest, now) >= p.table.P(s.M.Dest, now) {
		return KindSpray, true
	}
	return 0, false
}
