package routing

import (
	"maps"
	"testing"

	"sdsrp/internal/core"
	"sdsrp/internal/msg"
	"sdsrp/internal/policy"
	"sdsrp/internal/rng"
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

// TestAckTableMatchesReference drives the windowed table and a plain set of
// acknowledged ids per node with the same random Add / MergeFrom / Forget
// sequences and requires Has to agree on every live id. Messages die in id
// order, as in a world: a dead frontier only advances, deliveries hit only
// ids at or above it, and each advance makes a random subset of nodes
// Forget one of the newly dead ids. The set never forgets, so it is the
// delivery history the table must still answer for above the frontier.
func TestAckTableMatchesReference(t *testing.T) {
	const nodes, window = 8, 40
	for seed := uint64(1); seed <= 40; seed++ {
		r := rng.New(seed)
		got := make([]*AckTable, nodes)
		want := make([]map[msg.ID]bool, nodes)
		for i := range got {
			got[i], want[i] = NewAckTable(), map[msg.ID]bool{}
		}
		var dead msg.ID // every id below it has expired
		for step := 0; step < 400; step++ {
			a, b := r.IntN(nodes), r.IntN(nodes)
			switch p := r.Float64(); {
			case p < 0.3:
				id := dead + msg.ID(r.IntN(window))
				got[a].Add(id)
				want[a][id] = true
			case p < 0.9:
				got[a].MergeFrom(got[b])
				maps.Copy(want[a], want[b])
			default:
				prev := dead
				dead += msg.ID(1 + r.IntN(3))
				for n := range got {
					if r.Bool(0.5) {
						got[n].Forget(prev + msg.ID(r.IntN(int(dead-prev))))
					}
				}
			}
			for n := range got {
				for id := dead; id < dead+window; id++ {
					if g, w := got[n].Has(id), want[n][id]; g != w {
						t.Fatalf("seed %d step %d node %d msg %d: Has %v, reference %v", seed, step, n, id, g, w)
					}
				}
			}
		}
	}
}
