package routing

import (
	"testing"

	"sdsrp/internal/core"
	"sdsrp/internal/policy"
)

func newAckNet(n int) *testNet {
	tn := emptyNet()
	for i := 0; i < n; i++ {
		tn.hosts = append(tn.hosts, NewHost(HostConfig{
			ID: i, Nodes: n, Buffer: 10000,
			Policy: policy.FIFO{}, Proto: SprayAndWait{Binary: true},
			Rate:    core.FixedRate{Mean: 1200},
			UseAcks: true,
			Clock:   func() float64 { return tn.now },
			Tracer:  tn.tracer(nil), Truth: tn.ledger,
		}))
	}
	return tn
}

func TestAckCreatedOnDelivery(t *testing.T) {
	tn := newAckNet(4)
	a, dest := tn.hosts[0], tn.hosts[3]
	a.Originate(tn.message(1, 0, 3, 8, 500, 100000), 0)
	tn.now = 10
	offer, _ := a.NextOffer(dest, nil)
	CommitTransfer(a, dest, offer, tn.now)
	if !dest.AckTable().Has(1) {
		t.Fatal("delivery did not create an ACK")
	}
}

func TestAckGossipPurgesCopies(t *testing.T) {
	tn := newAckNet(5)
	a, b, dest := tn.hosts[0], tn.hosts[1], tn.hosts[3]
	a.Originate(tn.message(1, 0, 3, 8, 500, 100000), 0)
	tn.now = 10
	tn.transferAll(a, b) // b now carries a copy
	if !b.Buffer().Has(1) {
		t.Fatal("precondition: relay holds a copy")
	}
	tn.now = 20
	tn.transferAll(a, dest) // delivery; dest holds the ACK

	// b meets the destination: the ACK gossips over and purges b's copy.
	tn.now = 30
	b.OnLinkUp(dest, tn.now)
	if b.Buffer().Has(1) {
		t.Fatal("ACK gossip did not purge the delivered message")
	}
	if tn.collector.AckPurges != 1 {
		t.Fatalf("ack purges = %d", tn.collector.AckPurges)
	}
	// And b refuses to receive it again.
	c := tn.hosts[2]
	c.Originate(tn.message(1, 2, 3, 8, 500, 100000), tn.now)
	if _, ok := c.NextOffer(b, nil); ok {
		t.Fatal("immunized node accepted a dead message")
	}
	// The ledger stays balanced.
	if tn.live(1) > 2 {
		t.Fatalf("ledger live = %d after purges", tn.live(1))
	}
}

func TestAckSecondHandGossip(t *testing.T) {
	tn := newAckNet(5)
	a, b, c, dest := tn.hosts[0], tn.hosts[1], tn.hosts[2], tn.hosts[3]
	a.Originate(tn.message(1, 0, 3, 8, 500, 100000), 0)
	tn.now = 10
	tn.transferAll(a, dest)
	// dest -> b -> c relay chain of the ACK itself.
	b.OnLinkUp(dest, 20)
	c.OnLinkUp(b, 30)
	if !c.AckTable().Has(1) {
		t.Fatal("ACK did not propagate second-hand")
	}
	_ = c
}

func TestAcksDisabledByDefault(t *testing.T) {
	tn := newTestNet(4, policy.FIFO{}, SprayAndWait{Binary: true}, 10000, false)
	if tn.hosts[0].AckTable() != nil {
		t.Fatal("ack table present without UseAcks")
	}
}
