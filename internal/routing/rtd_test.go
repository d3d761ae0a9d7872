package routing

import (
	"testing"

	"sdsrp/internal/core"
	"sdsrp/internal/msg"
	"sdsrp/internal/policy"
)

// Receive-then-drop semantics (Algorithm 1, the default): a completed
// transfer whose payload is the weakest message still costs the sender's
// tokens and counts as a forward, and the receiver's dropped list learns
// the message.
func TestArrivalDropDestroysTokensAndCountsForward(t *testing.T) {
	tn := newTestNet(4, policy.TTLRatio{}, SprayAndWait{Binary: true}, 500, true)
	a, b := tn.hosts[0], tn.hosts[1]
	// Receiver full with a fresh message.
	fresh := tn.message(1, 1, 3, 8, 500, 100000)
	b.Originate(fresh, 0)
	// Sender sprays a stale message (lower TTL ratio): weakest on arrival.
	stale := tn.message(2, 0, 3, 8, 500, 600)
	a.Originate(stale, 0)
	tn.now = 10

	offer, ok := a.NextOffer(b, nil)
	if !ok || offer.S.M.ID != 2 {
		t.Fatalf("offer = %+v", offer)
	}
	if !b.PreAccept(offer, tn.now) {
		t.Fatal("receive-then-drop mode must not preflight-refuse on eviction")
	}
	if CommitTransfer(a, b, offer, tn.now) {
		t.Fatal("commit reported success for an arrival-dropped message")
	}
	// Sender tokens were spent.
	if got := a.Buffer().Get(2); got.Copies != 4 {
		t.Fatalf("sender copies = %d, want 4 (split happened)", got.Copies)
	}
	// The transfer counts as a forward; the arrival drop as a policy drop.
	if tn.collector.Forwards != 1 {
		t.Fatalf("forwards = %d, want 1", tn.collector.Forwards)
	}
	if tn.collector.PolicyDrops != 1 {
		t.Fatalf("drops = %d, want 1", tn.collector.PolicyDrops)
	}
	// The receiver never stored it, and its buffer still holds the fresh one.
	if b.Buffer().Has(2) || !b.Buffer().Has(1) {
		t.Fatal("receiver buffer state wrong")
	}
	// With the dropped list enabled, the receiver refuses a re-offer.
	if b.DropTable() == nil || !b.DropTable().RejectsIncoming(2) {
		t.Fatal("arrival drop not recorded in the dropped list")
	}
	if _, ok := a.NextOffer(b, nil); ok {
		t.Fatal("message re-offered despite dropped-list rejection")
	}
}

// In preflight mode the same exchange is refused before any bytes move:
// sender tokens intact, nothing forwarded.
func TestPreflightModeRefusesBeforeBytesMove(t *testing.T) {
	tn := emptyNet()
	mk := func(id int) *Host {
		return NewHost(HostConfig{
			ID: id, Nodes: 4, Buffer: 500,
			Policy: policy.TTLRatio{}, Proto: SprayAndWait{Binary: true},
			Rate:              core.FixedRate{Mean: 1200},
			PreflightEviction: true,
			Clock:             func() float64 { return tn.now },
			Tracer:            tn.tracer(nil), Truth: tn.ledger,
		})
	}
	a, b := mk(0), mk(1)
	b.Originate(&msg.Message{ID: 1, Source: 1, Dest: 3, Size: 500, Created: 0, TTL: 100000, InitialCopies: 8}, 0)
	a.Originate(&msg.Message{ID: 2, Source: 0, Dest: 3, Size: 500, Created: 0, TTL: 600, InitialCopies: 8}, 0)
	tn.now = 10
	offer, ok := a.NextOffer(b, nil)
	if !ok {
		t.Fatal("no offer")
	}
	if b.PreAccept(offer, tn.now) {
		t.Fatal("preflight accepted the weakest newcomer")
	}
	if got := a.Buffer().Get(2); got.Copies != 8 {
		t.Fatalf("sender copies = %d, want untouched 8", got.Copies)
	}
	if tn.collector.Forwards != 0 {
		t.Fatal("refused transfer counted as forward")
	}
}

// Arrival drops must not corrupt the ground truth: the copy was never
// stored, so the ledger's live count stays balanced.
func TestArrivalDropTrackerBalance(t *testing.T) {
	tn := newTestNet(4, policy.TTLRatio{}, SprayAndWait{Binary: true}, 500, false)
	a, b := tn.hosts[0], tn.hosts[1]
	b.Originate(tn.message(1, 1, 3, 8, 500, 100000), 0)
	a.Originate(tn.message(2, 0, 3, 8, 500, 600), 0)
	tn.now = 10
	offer, _ := a.NextOffer(b, nil)
	CommitTransfer(a, b, offer, tn.now)
	if tn.live(2) != 1 { // only the sender's copy
		t.Fatalf("ledger live = %d, want 1", tn.live(2))
	}
}
