package routing

import (
	"testing"

	"sdsrp/internal/core"
	"sdsrp/internal/fault"
	"sdsrp/internal/obs"
	"sdsrp/internal/policy"
)

// roleNet builds a 4-host net where host 1 is a black hole and host 2 is
// selfish.
func roleNet(tr obs.Tracer) *testNet {
	tn := emptyNet()
	roles := []fault.Role{fault.RoleHonest, fault.RoleBlackHole, fault.RoleSelfish, fault.RoleHonest}
	for i := 0; i < 4; i++ {
		tn.hosts = append(tn.hosts, NewHost(HostConfig{
			ID:     i,
			Nodes:  4,
			Buffer: 1 << 20,
			Policy: policy.FIFO{},
			Proto:  SprayAndWait{Binary: true},
			Rate:   core.FixedRate{Mean: 1200},
			Clock:  func() float64 { return tn.now },
			Tracer: tn.tracer(tr),
			Truth:  tn.ledger,
			Role:   roles[i],
		}))
	}
	return tn
}

// TestSelfishRefusesRelaysAcceptsDelivery: a selfish node declines every
// replication offer but still consumes messages addressed to it.
func TestSelfishRefusesRelaysAcceptsDelivery(t *testing.T) {
	tn := roleNet(nil)
	src, selfish := tn.hosts[0], tn.hosts[2]

	// Relay offer toward a third party: refused up-front.
	if !src.Originate(tn.message(1, 0, 3, 8, 500, 100000), 0) {
		t.Fatal("originate failed")
	}
	tn.now = 10
	offer, ok := src.NextOffer(selfish, nil)
	if !ok {
		t.Fatal("no offer")
	}
	if selfish.PreAccept(offer, tn.now) {
		t.Fatal("selfish node accepted a relay")
	}

	// Delivery to the selfish node itself: accepted and consumed.
	if !src.Originate(tn.message(2, 0, 2, 8, 500, 100000), tn.now) {
		t.Fatal("originate failed")
	}
	tn.now = 20
	if n := tn.transferAll(src, selfish); n != 1 {
		t.Fatalf("transferred %d to the selfish destination, want 1 delivery", n)
	}
	if !selfish.Received(2) {
		t.Fatal("selfish destination did not consume its own message")
	}
}

// TestBlackHoleSwallowsCopies: the sender spends its spray tokens, the
// receiver stores nothing, no dropped-list record is created, and the event
// stream shows forwarded followed by transfer_lost.
func TestBlackHoleSwallowsCopies(t *testing.T) {
	ring := obs.NewRing(16)
	tn := roleNet(ring)
	src, hole := tn.hosts[0], tn.hosts[1]

	if !src.Originate(tn.message(1, 0, 3, 8, 500, 100000), 0) {
		t.Fatal("originate failed")
	}
	tn.now = 10
	offer, ok := src.NextOffer(hole, nil)
	if !ok {
		t.Fatal("no offer")
	}
	if !hole.PreAccept(offer, tn.now) {
		t.Fatal("black hole must accept up-front")
	}
	if CommitTransfer(src, hole, offer, tn.now) {
		t.Fatal("commit reported success for a swallowed copy")
	}
	// Sender committed: binary spray halves 8 -> 4.
	if got := src.Buffer().Get(1).Copies; got != 4 {
		t.Fatalf("sender tokens = %d, want 4 (spent on the black hole)", got)
	}
	if hole.Buffer().Has(1) {
		t.Fatal("black hole stored the copy")
	}
	if tn.collector.Lost != 1 {
		t.Fatalf("collector.Lost = %d, want 1", tn.collector.Lost)
	}
	if tn.collector.PolicyDrops != 0 {
		t.Fatalf("black hole counted a policy drop: %d", tn.collector.PolicyDrops)
	}
	evs := ring.Events()
	if len(evs) < 2 {
		t.Fatalf("got %d events", len(evs))
	}
	last, prev := evs[len(evs)-1], evs[len(evs)-2]
	if prev.Type != obs.MessageForwarded || last.Type != obs.TransferLost {
		t.Fatalf("tail events = %v, %v; want forwarded, transfer_lost", prev.Type, last.Type)
	}
	if last.Node != 0 || last.Peer != 1 || last.Msg != 1 {
		t.Fatalf("transfer_lost fields: %+v", last)
	}
}

// TestWipeState: a reboot wipe empties the buffer, resets the dropped-list
// table, keeps the received set, and rebalances the ledger.
func TestWipeState(t *testing.T) {
	tn := newTestNet(4, policy.FIFO{}, SprayAndWait{Binary: true}, 1<<20, true)
	h := tn.hosts[0]
	h.Originate(tn.message(1, 0, 3, 8, 500, 100000), 0)
	h.Originate(tn.message(2, 0, 3, 8, 500, 100000), 0)
	h.DropMessage(h.Buffer().Get(2), 0, 5) // populate the dropped list
	h.markReceived(7)

	tn.now = 10
	if n := h.WipeState(tn.now); n != 1 {
		t.Fatalf("wiped %d copies, want 1", n)
	}
	if h.Buffer().Len() != 0 {
		t.Fatal("buffer not empty after wipe")
	}
	if h.DropTable().Records() != 0 || h.DropTable().RejectsIncoming(2) {
		t.Fatal("dropped-list state survived the wipe")
	}
	if !h.received[7] {
		t.Fatal("received set must survive a reboot")
	}
	if tn.live(1) != 0 {
		t.Fatalf("ledger live = %d after wipe, want 0", tn.live(1))
	}
}
