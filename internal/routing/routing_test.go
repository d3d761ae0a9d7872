package routing

import (
	"testing"

	"sdsrp/internal/core"
	"sdsrp/internal/msg"
	"sdsrp/internal/policy"
	"sdsrp/internal/stats"
)

// testNet is a tiny harness: hosts sharing a clock, collector and tracker.
type testNet struct {
	now       float64
	collector *stats.Collector
	tracker   *Tracker
	hosts     []*Host
}

func newTestNet(n int, pol policy.Policy, proto Protocol, bufBytes int64, dropList bool) *testNet {
	tn := &testNet{collector: stats.NewCollector(), tracker: NewTracker()}
	for i := 0; i < n; i++ {
		tn.hosts = append(tn.hosts, NewHost(HostConfig{
			ID:          i,
			Nodes:       n,
			Buffer:      bufBytes,
			Policy:      pol,
			Proto:       proto,
			Rate:        core.FixedRate{Mean: 1200},
			UseDropList: dropList,
			Clock:       func() float64 { return tn.now },
			Collector:   tn.collector,
			Tracker:     tn.tracker,
			Oracle:      tn.tracker,
		}))
	}
	return tn
}

func (tn *testNet) message(id msg.ID, src, dst, copies int, size int64, ttl float64) *msg.Message {
	return &msg.Message{ID: id, Source: src, Dest: dst, Size: size,
		Created: tn.now, TTL: ttl, InitialCopies: copies}
}

// transferAll performs one full exchange from a to b: repeatedly take the
// best offer and commit it (as if bandwidth were infinite).
func (tn *testNet) transferAll(a, b *Host) int {
	count := 0
	refused := map[msg.ID]bool{}
	for {
		offer, ok := a.NextOffer(b, func(id msg.ID) bool { return refused[id] })
		if !ok {
			return count
		}
		if !b.PreAccept(offer, tn.now) || !CommitTransfer(a, b, offer, tn.now) {
			refused[offer.S.M.ID] = true
			continue
		}
		count++
	}
}

func TestOriginateStores(t *testing.T) {
	tn := newTestNet(4, policy.FIFO{}, SprayAndWait{Binary: true}, 1000, false)
	h := tn.hosts[0]
	if !h.Originate(tn.message(1, 0, 3, 8, 400, 1000), 0) {
		t.Fatal("originate failed")
	}
	if !h.Buffer().Has(1) {
		t.Fatal("message not stored")
	}
	if tn.collector.Created != 1 {
		t.Fatalf("created = %d", tn.collector.Created)
	}
	if tn.tracker.Live(1) != 1 || tn.tracker.Seen(1) != 0 {
		t.Fatalf("tracker live=%d seen=%d", tn.tracker.Live(1), tn.tracker.Seen(1))
	}
}

func TestOriginateOverflowEvictsOldest(t *testing.T) {
	tn := newTestNet(4, policy.FIFO{}, SprayAndWait{Binary: true}, 1000, false)
	h := tn.hosts[0]
	tn.now = 1
	h.Originate(tn.message(1, 0, 3, 8, 600, 1000), tn.now)
	tn.now = 2
	h.Originate(tn.message(2, 0, 3, 8, 600, 1000), tn.now)
	if h.Buffer().Has(1) || !h.Buffer().Has(2) {
		t.Fatal("FIFO origination did not evict the older message")
	}
	if tn.collector.PolicyDrops != 1 {
		t.Fatalf("drops = %d", tn.collector.PolicyDrops)
	}
	if tn.tracker.Live(1) != 0 {
		t.Fatalf("tracker live(1) = %d", tn.tracker.Live(1))
	}
}

func TestSprayTransfer(t *testing.T) {
	tn := newTestNet(4, policy.FIFO{}, SprayAndWait{Binary: true}, 10000, false)
	a, b := tn.hosts[0], tn.hosts[1]
	a.Originate(tn.message(1, 0, 3, 8, 500, 1000), 0)

	tn.now = 10
	offer, ok := a.NextOffer(b, nil)
	if !ok || offer.Kind != KindSpray {
		t.Fatalf("offer = %+v ok=%v", offer, ok)
	}
	if !b.PreAccept(offer, tn.now) {
		t.Fatal("preflight rejected")
	}
	if !CommitTransfer(a, b, offer, tn.now) {
		t.Fatal("commit failed")
	}
	as, bs := a.Buffer().Get(1), b.Buffer().Get(1)
	if as.Copies != 4 || bs.Copies != 4 {
		t.Fatalf("token split %d/%d, want 4/4", as.Copies, bs.Copies)
	}
	if bs.Hops != 1 || as.Hops != 0 {
		t.Fatalf("hops %d/%d", as.Hops, bs.Hops)
	}
	if len(as.SprayTimes) != 1 || len(bs.SprayTimes) != 1 || bs.SprayTimes[0] != 10 {
		t.Fatal("spray history wrong")
	}
	if tn.collector.Forwards != 1 {
		t.Fatalf("forwards = %d", tn.collector.Forwards)
	}
	if tn.tracker.Live(1) != 2 || tn.tracker.Seen(1) != 1 {
		t.Fatalf("tracker live=%d seen=%d", tn.tracker.Live(1), tn.tracker.Seen(1))
	}
	// b must not be offered the same message again.
	if _, ok := a.NextOffer(b, nil); ok {
		t.Fatal("re-offered a message the peer already has")
	}
}

func TestWaitPhaseNoSpray(t *testing.T) {
	tn := newTestNet(4, policy.FIFO{}, SprayAndWait{Binary: true}, 10000, false)
	a, b := tn.hosts[0], tn.hosts[1]
	m := tn.message(1, 0, 3, 1, 500, 1000) // single copy: wait phase from birth
	a.Originate(m, 0)
	if _, ok := a.NextOffer(b, nil); ok {
		t.Fatal("wait-phase message sprayed to a relay")
	}
	// But the destination still gets it.
	dest := tn.hosts[3]
	offer, ok := a.NextOffer(dest, nil)
	if !ok || offer.Kind != KindDelivery {
		t.Fatalf("wait-phase delivery offer = %v %v", offer, ok)
	}
}

func TestDeliveryConsumes(t *testing.T) {
	tn := newTestNet(4, policy.FIFO{}, SprayAndWait{Binary: true}, 10000, false)
	a, dest := tn.hosts[0], tn.hosts[3]
	a.Originate(tn.message(1, 0, 3, 8, 500, 1000), 0)
	tn.now = 20
	offer, _ := a.NextOffer(dest, nil)
	if offer.Kind != KindDelivery {
		t.Fatalf("kind = %v", offer.Kind)
	}
	if !CommitTransfer(a, dest, offer, tn.now) {
		t.Fatal("delivery failed")
	}
	if a.Buffer().Has(1) {
		t.Fatal("sender kept its copy after confirmed delivery")
	}
	if dest.Buffer().Has(1) {
		t.Fatal("destination buffered a consumed message")
	}
	if !dest.Received(1) {
		t.Fatal("destination did not record receipt")
	}
	s := tn.collector.Summarize()
	if s.Delivered != 1 || s.Forwards != 1 {
		t.Fatalf("delivered=%d forwards=%d", s.Delivered, s.Forwards)
	}
	if tn.tracker.Live(1) != 0 || tn.tracker.Seen(1) != 1 {
		t.Fatalf("tracker live=%d seen=%d", tn.tracker.Live(1), tn.tracker.Seen(1))
	}
	// Delivering again from another holder is refused.
	b := tn.hosts[1]
	b.Originate(tn.message(1, 0, 3, 8, 500, 1000), tn.now) // same id copy
	if _, ok := b.NextOffer(dest, nil); ok {
		t.Fatal("destination accepted a duplicate")
	}
}

// Algorithm 1 schedules purely by priority: a deliverable message does NOT
// jump the queue. Under FIFO, the older spray goes out before the newer
// message even though the peer is that newer message's destination.
func TestSchedulingIsPurePriorityOrder(t *testing.T) {
	tn := newTestNet(4, policy.FIFO{}, SprayAndWait{Binary: true}, 10000, false)
	a, b := tn.hosts[0], tn.hosts[1]
	a.Originate(tn.message(1, 0, 2, 8, 500, 1000), 0) // for someone else, older
	tn.now = 1
	a.Originate(tn.message(2, 0, 1, 8, 500, 1000), tn.now) // for b, newer
	offer, ok := a.NextOffer(b, nil)
	if !ok || offer.Kind != KindSpray || offer.S.M.ID != 1 {
		t.Fatalf("offer = %+v, want spray of the older message 1", offer)
	}
	// Once the peer holds message 1, the delivery of message 2 is next.
	CommitTransfer(a, b, offer, tn.now)
	offer, ok = a.NextOffer(b, nil)
	if !ok || offer.Kind != KindDelivery || offer.S.M.ID != 2 {
		t.Fatalf("second offer = %+v, want delivery of 2", offer)
	}
}

// Under SW-C the wait-phase copy ranks last even against its own
// destination — the scheduling pathology the paper attributes to
// Spray-and-Wait-C.
func TestSWCDelaysDeliverableWaitCopies(t *testing.T) {
	tn := newTestNet(4, policy.CopiesRatio{}, SprayAndWait{Binary: true}, 10000, false)
	a, b := tn.hosts[0], tn.hosts[1]
	waitCopy := tn.message(1, 0, 1, 8, 500, 1000) // destined for b
	a.Originate(waitCopy, 0)
	a.Buffer().Get(1).Copies = 1 // wait phase
	a.Originate(tn.message(2, 0, 3, 8, 500, 1000), 0)
	offer, ok := a.NextOffer(b, nil)
	if !ok || offer.S.M.ID != 2 {
		t.Fatalf("offer = %+v, want the token-rich spray first", offer)
	}
}

func TestNextOfferSkipAndExpiry(t *testing.T) {
	tn := newTestNet(4, policy.FIFO{}, SprayAndWait{Binary: true}, 10000, false)
	a, b := tn.hosts[0], tn.hosts[1]
	a.Originate(tn.message(1, 0, 3, 8, 500, 50), 0) // will expire at t=50
	tn.now = 1
	a.Originate(tn.message(2, 0, 3, 8, 500, 1000), tn.now)
	tn.now = 60 // message 1 now expired
	offer, ok := a.NextOffer(b, nil)
	if !ok || offer.S.M.ID != 2 {
		t.Fatalf("expired message offered: %+v", offer)
	}
	if _, ok := a.NextOffer(b, func(id msg.ID) bool { return id == 2 }); ok {
		t.Fatal("skip function ignored")
	}
}

func TestPolicyOrderDrivesOffers(t *testing.T) {
	tn := newTestNet(4, policy.TTLRatio{}, SprayAndWait{Binary: true}, 10000, false)
	a, b := tn.hosts[0], tn.hosts[1]
	a.Originate(tn.message(1, 0, 3, 8, 400, 100), 0)  // expiring soon
	a.Originate(tn.message(2, 0, 3, 8, 400, 5000), 0) // fresh
	tn.now = 10
	offer, _ := a.NextOffer(b, nil)
	if offer.S.M.ID != 2 {
		t.Fatalf("SW-O offered %d first, want the fresher 2", offer.S.M.ID)
	}
}

func TestCommitRefusedWhenReceiverGotCopyMeanwhile(t *testing.T) {
	tn := newTestNet(4, policy.FIFO{}, SprayAndWait{Binary: true}, 10000, false)
	a, b, c := tn.hosts[0], tn.hosts[1], tn.hosts[2]
	a.Originate(tn.message(1, 0, 3, 8, 500, 1000), 0)
	tn.now = 5
	offer, _ := a.NextOffer(b, nil)
	// While the transfer is in flight, b receives the message from c.
	tn.transferAll(a, c)
	offer2, ok := c.NextOffer(b, nil)
	if !ok {
		t.Fatal("c has nothing for b")
	}
	CommitTransfer(c, b, offer2, tn.now)
	// Now the original transfer lands: refused, sender tokens unchanged.
	before := offer.S.Copies
	if CommitTransfer(a, b, offer, tn.now) {
		t.Fatal("duplicate commit succeeded")
	}
	if offer.S.Copies != before {
		t.Fatal("refused commit still split tokens")
	}
	if tn.collector.Refused == 0 {
		t.Fatal("refusal not counted")
	}
}

func TestEvictionOnReceive(t *testing.T) {
	// Receiver buffer fits one message; FIFO evicts its old one for the new.
	tn := newTestNet(4, policy.FIFO{}, SprayAndWait{Binary: true}, 500, false)
	a, b := tn.hosts[0], tn.hosts[1]
	b.Originate(tn.message(1, 1, 3, 8, 500, 1000), 0)
	tn.now = 5
	a.Originate(tn.message(2, 0, 3, 8, 500, 1000), tn.now)
	tn.now = 10
	offer, _ := a.NextOffer(b, nil)
	if !b.PreAccept(offer, tn.now) {
		t.Fatal("preflight rejected acceptable message")
	}
	if !CommitTransfer(a, b, offer, tn.now) {
		t.Fatal("commit failed")
	}
	if b.Buffer().Has(1) || !b.Buffer().Has(2) {
		t.Fatal("eviction wrong")
	}
	if tn.collector.PolicyDrops != 1 {
		t.Fatalf("drops = %d", tn.collector.PolicyDrops)
	}
}

func TestDropListRejectsReceipt(t *testing.T) {
	tn := newTestNet(4, policy.SDSRP{}, SprayAndWait{Binary: true}, 10000, true)
	a, b := tn.hosts[0], tn.hosts[1]
	a.Originate(tn.message(1, 0, 3, 8, 500, 1000), 0)
	// b dropped message 1 in the past.
	bCopy := &msg.Stored{M: tn.message(1, 0, 3, 8, 500, 1000), Copies: 1}
	b.Buffer().Add(bCopy)
	b.DropMessage(bCopy, 0, 1)
	tn.now = 10
	if _, ok := a.NextOffer(b, nil); ok {
		t.Fatal("peer offered a message in its dropped list")
	}
}

func TestDropListGossipOnLinkUp(t *testing.T) {
	tn := newTestNet(4, policy.SDSRP{}, SprayAndWait{Binary: true}, 10000, true)
	a, b, c := tn.hosts[0], tn.hosts[1], tn.hosts[2]
	aCopy := &msg.Stored{M: tn.message(9, 0, 3, 8, 500, 1000), Copies: 1}
	a.Buffer().Add(aCopy)
	a.DropMessage(aCopy, 0, 1)
	b.OnLinkUp(a, 5)
	if b.DropTable().DroppedCount(9) != 1 {
		t.Fatal("gossip did not propagate the drop record")
	}
	// Second-hand gossip: b -> c.
	c.OnLinkUp(b, 8)
	if c.DropTable().DroppedCount(9) != 1 {
		t.Fatal("second-hand gossip failed")
	}
}

func TestExpireMessages(t *testing.T) {
	tn := newTestNet(4, policy.SDSRP{}, SprayAndWait{Binary: true}, 10000, true)
	a := tn.hosts[0]
	a.Originate(tn.message(1, 0, 3, 8, 500, 50), 0)
	a.Originate(tn.message(2, 0, 3, 8, 500, 5000), 0)
	tn.now = 100
	if n := a.ExpireMessages(tn.now); n != 1 {
		t.Fatalf("expired %d, want 1", n)
	}
	if a.Buffer().Has(1) || !a.Buffer().Has(2) {
		t.Fatal("expiry removed wrong message")
	}
	if tn.collector.ExpiredDrops != 1 {
		t.Fatalf("expired counter = %d", tn.collector.ExpiredDrops)
	}
	if tn.tracker.Live(1) != 0 {
		t.Fatal("tracker still counts expired copy")
	}
}

func TestEpidemicRelaysWithoutTokens(t *testing.T) {
	tn := newTestNet(4, policy.FIFO{}, Epidemic{}, 10000, false)
	a, b := tn.hosts[0], tn.hosts[1]
	a.Originate(tn.message(1, 0, 3, 1, 500, 1000), 0)
	tn.now = 10
	offer, ok := a.NextOffer(b, nil)
	if !ok || offer.Kind != KindRelay {
		t.Fatalf("offer = %+v ok=%v", offer, ok)
	}
	CommitTransfer(a, b, offer, tn.now)
	if !a.Buffer().Has(1) || !b.Buffer().Has(1) {
		t.Fatal("epidemic relay should copy, not move")
	}
	if b.Buffer().Get(1).Hops != 1 {
		t.Fatal("relay hops wrong")
	}
}

func TestDirectDeliveryOnlyDest(t *testing.T) {
	tn := newTestNet(4, policy.FIFO{}, DirectDelivery{}, 10000, false)
	a := tn.hosts[0]
	a.Originate(tn.message(1, 0, 3, 4, 500, 1000), 0)
	if _, ok := a.NextOffer(tn.hosts[1], nil); ok {
		t.Fatal("direct delivery offered to a relay")
	}
	offer, ok := a.NextOffer(tn.hosts[3], nil)
	if !ok || offer.Kind != KindDelivery {
		t.Fatal("direct delivery failed to the destination")
	}
}

func TestSprayAndFocusHandoff(t *testing.T) {
	tn := newTestNet(4, policy.FIFO{}, NewSprayAndFocus(10), 10000, false)
	// Each host needs its own instance.
	for i := range tn.hosts {
		tn.hosts[i].proto = NewSprayAndFocus(10)
	}
	a, b := tn.hosts[0], tn.hosts[1]
	a.Originate(tn.message(1, 0, 3, 1, 500, 1000), 0) // wait/focus phase
	// b met the destination recently; a never did.
	b.OnLinkUp(tn.hosts[3], 90)
	tn.now = 100
	offer, ok := a.NextOffer(b, nil)
	if !ok || offer.Kind != KindHandoff {
		t.Fatalf("offer = %+v ok=%v", offer, ok)
	}
	CommitTransfer(a, b, offer, tn.now)
	if a.Buffer().Has(1) {
		t.Fatal("handoff left the copy at the sender")
	}
	if got := b.Buffer().Get(1); got == nil || got.Copies != 1 {
		t.Fatal("handoff did not move the copy")
	}
	// Reverse direction: a (never met dest) gains nothing from handing back.
	offer2, ok2 := b.NextOffer(a, nil)
	if ok2 && offer2.Kind == KindHandoff {
		t.Fatal("ping-pong handoff")
	}
}

func TestSourceSprayMode(t *testing.T) {
	tn := newTestNet(4, policy.FIFO{}, SprayAndWait{Binary: false}, 10000, false)
	a, b, c := tn.hosts[0], tn.hosts[1], tn.hosts[2]
	a.Originate(tn.message(1, 0, 3, 4, 500, 1000), 0)
	tn.now = 10
	offer, ok := a.NextOffer(b, nil)
	if !ok || offer.Kind != KindSpraySource {
		t.Fatalf("offer = %+v", offer)
	}
	CommitTransfer(a, b, offer, tn.now)
	if a.Buffer().Get(1).Copies != 3 || b.Buffer().Get(1).Copies != 1 {
		t.Fatal("source spray token accounting wrong")
	}
	// The relay b must not spray further.
	if _, ok := b.NextOffer(c, nil); ok {
		t.Fatal("relay sprayed in source mode")
	}
}

func TestFullSprayWaitDeliveryCycle(t *testing.T) {
	// End-to-end over the host layer: spray through relays until the
	// destination is met; token conservation holds throughout.
	tn := newTestNet(6, policy.FIFO{}, SprayAndWait{Binary: true}, 10000, false)
	src := tn.hosts[0]
	src.Originate(tn.message(1, 0, 5, 8, 500, 100000), 0)
	relays := []*Host{tn.hosts[1], tn.hosts[2], tn.hosts[3], tn.hosts[4]}
	for i, r := range relays {
		tn.now = float64(10 * (i + 1))
		tn.transferAll(src, r)
	}
	total := 0
	for _, h := range tn.hosts[:5] {
		if s := h.Buffer().Get(1); s != nil {
			total += s.Copies
		}
	}
	if total != 8 {
		t.Fatalf("token conservation violated: %d", total)
	}
	// A relay holding a copy meets the destination.
	tn.now = 100
	carrier := tn.hosts[1]
	if carrier.Buffer().Get(1) == nil {
		t.Fatal("relay 1 unexpectedly empty")
	}
	n := tn.transferAll(carrier, tn.hosts[5])
	if n != 1 {
		t.Fatalf("delivery transfers = %d", n)
	}
	if tn.collector.Summarize().Delivered != 1 {
		t.Fatal("message not delivered")
	}
}

func TestTrackerSeenExcludesSource(t *testing.T) {
	tr := NewTracker()
	tr.NoteCreated(1, 7)
	tr.NoteStored(1, 7)
	if tr.Seen(1) != 0 {
		t.Fatalf("seen = %d, want 0", tr.Seen(1))
	}
	tr.NoteStored(1, 8)
	tr.NoteStored(1, 9)
	if tr.Seen(1) != 2 || tr.Live(1) != 3 {
		t.Fatalf("seen=%d live=%d", tr.Seen(1), tr.Live(1))
	}
	tr.NoteRemoved(1, 8)
	if tr.Seen(1) != 2 || tr.Live(1) != 2 {
		t.Fatalf("after removal: seen=%d live=%d", tr.Seen(1), tr.Live(1))
	}
	// Re-storing at a node that already carried it doesn't inflate seen.
	tr.NoteStored(1, 8)
	if tr.Seen(1) != 2 {
		t.Fatalf("seen inflated to %d", tr.Seen(1))
	}
}

func TestLambdaEstimatorWiring(t *testing.T) {
	tn := &testNet{collector: stats.NewCollector(), tracker: NewTracker()}
	est := core.NewLambdaEstimator(1000, 1)
	h := NewHost(HostConfig{
		ID: 0, Nodes: 4, Buffer: 1000,
		Policy: policy.SDSRP{}, Proto: SprayAndWait{Binary: true},
		Rate:  est,
		Clock: func() float64 { return tn.now }, Collector: tn.collector,
	})
	peer := NewHost(HostConfig{
		ID: 1, Nodes: 4, Buffer: 1000,
		Policy: policy.SDSRP{}, Proto: SprayAndWait{Binary: true},
		Rate:  core.FixedRate{Mean: 1000},
		Clock: func() float64 { return tn.now }, Collector: tn.collector,
	})
	h.OnLinkUp(peer, 10)
	h.OnLinkDown(peer, 20)
	h.OnLinkUp(peer, 520) // sample: 500
	if est.Samples() != 1 {
		t.Fatalf("samples = %d", est.Samples())
	}
	if h.Lambda() <= 0 || h.EIMin() <= 0 {
		t.Fatal("host rate accessors broken")
	}
}

func TestProtocolByName(t *testing.T) {
	for _, name := range []string{"spray-and-wait", "snw", "spray-and-wait-source",
		"epidemic", "direct", "spray-and-focus", ""} {
		if _, ok := ProtocolByName(name); !ok {
			t.Fatalf("ProtocolByName(%q) failed", name)
		}
	}
	if _, ok := ProtocolByName("bogus"); ok {
		t.Fatal("bogus protocol accepted")
	}
}

// The host's policy.View implementation feeds SDSRP's estimators: verify
// the wiring end to end on a hand-built spread state.
func TestHostViewEstimates(t *testing.T) {
	tn := newTestNet(100, policy.SDSRP{}, SprayAndWait{Binary: true}, 10000, true)
	h := tn.hosts[0]
	if h.Nodes() != 100 {
		t.Fatalf("Nodes = %d", h.Nodes())
	}
	if h.Lambda() <= 0 || h.EIMin() <= 0 {
		t.Fatal("rate accessors not positive with a fixed rate")
	}
	// A copy with two splits long ago: m̂ bounded by tokens, n̂ = m̂+1-d̂.
	m := tn.message(42, 0, 9, 8, 500, 100000)
	s := &msg.Stored{M: m, Copies: 2, SprayTimes: []float64{0, 10}}
	tn.now = 100000 // far future: subtree doubling saturates at token bound
	seen := h.SeenEstimate(s)
	if seen < 2 || seen > 8 {
		t.Fatalf("SeenEstimate = %v, want within (splits, L]", seen)
	}
	liveBefore := h.LiveEstimate(s)
	// Two nodes report dropping the message: n̂ decreases accordingly.
	h.DropTable().RecordDrop(42, 50)
	other := tn.hosts[1]
	otherCopy := &msg.Stored{M: m, Copies: 1}
	other.Buffer().Add(otherCopy)
	other.DropMessage(otherCopy, 0, 60)
	h.OnLinkUp(other, 70)
	liveAfter := h.LiveEstimate(s)
	if liveAfter >= liveBefore {
		t.Fatalf("LiveEstimate did not fall with drops: %v -> %v", liveBefore, liveAfter)
	}
	if liveAfter < 1 {
		t.Fatalf("LiveEstimate below 1: %v", liveAfter)
	}
}

// Oracle accessors read the tracker's ground truth.
func TestHostOracleAccessors(t *testing.T) {
	tn := newTestNet(5, policy.OracleUtility{}, SprayAndWait{Binary: true}, 10000, false)
	a := tn.hosts[0]
	a.Originate(tn.message(1, 0, 4, 8, 500, 100000), 0)
	tn.now = 10
	tn.transferAll(a, tn.hosts[1])
	tn.transferAll(a, tn.hosts[2])
	s := a.Buffer().Get(1)
	if got := a.TrueSeen(s); got != 2 {
		t.Fatalf("TrueSeen = %v, want 2", got)
	}
	if got := a.TrueLive(s); got != 3 {
		t.Fatalf("TrueLive = %v, want 3", got)
	}
}

func TestOriginateOversizedMessageDropped(t *testing.T) {
	tn := newTestNet(4, policy.FIFO{}, SprayAndWait{Binary: true}, 400, false)
	h := tn.hosts[0]
	if h.Originate(tn.message(1, 0, 3, 8, 500, 1000), 0) {
		t.Fatal("message larger than the buffer stored")
	}
	if tn.collector.Created != 1 || tn.collector.PolicyDrops != 1 {
		t.Fatalf("created=%d drops=%d", tn.collector.Created, tn.collector.PolicyDrops)
	}
	if tn.tracker.Live(1) != 0 {
		t.Fatal("tracker counts an unstored message")
	}
}
