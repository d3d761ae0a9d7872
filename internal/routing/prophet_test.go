package routing

import (
	"math"
	"testing"

	"sdsrp/internal/policy"
	"sdsrp/internal/rng"
)

func TestPredictTableDirectEncounter(t *testing.T) {
	tb := NewPredictTable()
	tb.Encounter(5, nil, 0)
	if p := tb.P(5, 0); math.Abs(p-0.75) > 1e-12 {
		t.Fatalf("P after first encounter = %v, want 0.75", p)
	}
	tb.Encounter(5, nil, 0)
	// 0.75 + 0.25*0.75 = 0.9375
	if p := tb.P(5, 0); math.Abs(p-0.9375) > 1e-12 {
		t.Fatalf("P after second encounter = %v", p)
	}
	if p := tb.P(6, 0); p != 0 {
		t.Fatalf("unmet node has P = %v", p)
	}
}

func TestPredictTableAging(t *testing.T) {
	tb := NewPredictTable()
	tb.Encounter(5, nil, 0)
	// After 10 aging units: 0.75 * 0.98^10.
	want := 0.75 * math.Pow(0.98, 10)
	if p := tb.P(5, 10*tb.AgingUnit); math.Abs(p-want) > 1e-9 {
		t.Fatalf("aged P = %v, want %v", p, want)
	}
	// Tiny values read as zero, and the next encounter collects them.
	if p := tb.P(5, 1e9); p != 0 {
		t.Fatalf("stale P = %v, want 0", p)
	}
	if tb.Len() != 1 {
		t.Fatalf("a read changed the table: %d entries", tb.Len())
	}
	tb.Encounter(6, nil, 1e9)
	if tb.Len() != 1 || tb.P(5, 1e9) != 0 {
		t.Fatalf("stale entries survived: %d", tb.Len())
	}
}

// Reading P writes nothing: two replicas of a four-node network meet in
// the same random order, one of them is also read at random times (before,
// between and after its encounters), and every table stays bit-identical.
func TestPredictTableReadsArePure(t *testing.T) {
	r := rng.New(5)
	for trial := 0; trial < 200; trial++ {
		var plain, read [4]*PredictTable
		for i := range plain {
			plain[i], read[i] = NewPredictTable(), NewPredictTable()
		}
		now := 0.0
		for step := 0; step < 12; step++ {
			for k := r.IntN(3); k > 0; k-- {
				read[r.IntN(4)].P(r.IntN(4), now+r.Uniform(-100, 3000))
			}
			now += float64(r.IntN(4)) * r.Uniform(0, 400)
			i := r.IntN(4)
			j := (i + 1 + r.IntN(3)) % 4
			for _, tb := range [][4]*PredictTable{plain, read} {
				tb[i].Encounter(j, tb[j], now)
				tb[j].Encounter(i, tb[i], now)
			}
			for k := range plain {
				if !sameTable(plain[k], read[k]) {
					t.Fatalf("trial %d step %d: reads changed node %d's table:\n%+v\n%+v",
						trial, step, k, plain[k], read[k])
				}
				for x := 0; x < 4; x++ {
					at := now + r.Uniform(0, 3000)
					if a, b := plain[k].P(x, at), read[k].P(x, at); math.Float64bits(a) != math.Float64bits(b) {
						t.Fatalf("trial %d step %d: P(%d→%d) = %v after reads, %v without", trial, step, k, x, b, a)
					}
				}
			}
		}
	}
}

// sameTable reports whether two tables hold bit-identical state.
func sameTable(a, b *PredictTable) bool {
	if len(a.p) != len(b.p) || math.Float64bits(a.lastAge) != math.Float64bits(b.lastAge) {
		return false
	}
	for x, v := range a.p {
		if w, ok := b.p[x]; !ok || math.Float64bits(v) != math.Float64bits(w) {
			return false
		}
	}
	return true
}

func TestPredictTableTransitivity(t *testing.T) {
	a := NewPredictTable()
	b := NewPredictTable()
	// b knows the destination 9 well.
	b.Encounter(9, nil, 0)
	// a meets b: direct P(a,b)=0.75 and transitive P(a,9)=0.75*0.75*0.25.
	a.Encounter(1, b, 0)
	want := 0.75 * 0.75 * 0.25
	if p := a.P(9, 0); math.Abs(p-want) > 1e-12 {
		t.Fatalf("transitive P = %v, want %v", p, want)
	}
	// Transitivity never lowers an existing higher value.
	a.p[9] = 0.9
	a.Encounter(1, b, 0)
	if p := a.P(9, 0); p < 0.9 {
		t.Fatalf("transitive update lowered P to %v", p)
	}
}

func TestProphetEligibility(t *testing.T) {
	tn := newTestNet(4, policy.FIFO{}, NewProphet(), 10000, false)
	// Each host needs its own instance.
	for i := range tn.hosts {
		tn.hosts[i].proto = NewProphet()
	}
	a, b := tn.hosts[0], tn.hosts[1]
	a.Originate(tn.message(1, 0, 3, 1, 500, 100000), 0)
	// Neither has met the destination: no relay.
	if _, ok := a.NextOffer(b, nil); ok {
		t.Fatal("prophet relayed without predictability gain")
	}
	// b meets the destination: now b is the better carrier.
	tn.now = 100
	b.OnLinkUp(tn.hosts[3], tn.now)
	offer, ok := a.NextOffer(b, nil)
	if !ok || offer.Kind != KindRelay {
		t.Fatalf("offer = %+v ok=%v", offer, ok)
	}
	// Direct delivery always allowed.
	offer, ok = a.NextOffer(tn.hosts[3], nil)
	if !ok || offer.Kind != KindDelivery {
		t.Fatal("prophet refused direct delivery")
	}
}

func TestProphetContactHookWiring(t *testing.T) {
	tn := newTestNet(3, policy.FIFO{}, NewProphet(), 10000, false)
	for i := range tn.hosts {
		tn.hosts[i].proto = NewProphet()
	}
	a, b := tn.hosts[0], tn.hosts[1]
	a.OnLinkUp(b, 10)
	b.OnLinkUp(a, 10)
	at := predictTableOf(a)
	if at.P(1, 10) <= 0 {
		t.Fatal("OnLinkUp did not feed the prophet table")
	}
}

func TestPredictGatedSpray(t *testing.T) {
	tn := newTestNet(4, policy.FIFO{}, NewSprayAndWaitPredict(), 10000, false)
	for i := range tn.hosts {
		tn.hosts[i].proto = NewSprayAndWaitPredict()
	}
	a, b, c := tn.hosts[0], tn.hosts[1], tn.hosts[2]
	a.Originate(tn.message(1, 0, 3, 8, 500, 100000), 0)
	// No information anywhere: tie (0 >= 0) keeps spraying alive.
	offer, ok := a.NextOffer(b, nil)
	if !ok || offer.Kind != KindSpray {
		t.Fatalf("uninformed spray blocked: %+v ok=%v", offer, ok)
	}
	// The carrier meets the destination: peers with no knowledge are now
	// worse than the carrier, so spraying to them stops.
	tn.now = 50
	a.OnLinkUp(tn.hosts[3], tn.now)
	if _, ok := a.NextOffer(c, nil); ok {
		t.Fatal("sprayed to a strictly worse peer")
	}
	// A peer that also met the destination qualifies again.
	c.OnLinkUp(tn.hosts[3], tn.now)
	c.OnLinkUp(tn.hosts[3], tn.now) // twice: P_c > P_a after aging equality
	tn.now = 60
	if _, ok := a.NextOffer(c, nil); !ok {
		t.Fatal("spray to an equally-promising peer blocked")
	}
}

func TestProtocolByNameReturnsFreshInstances(t *testing.T) {
	p1, _ := ProtocolByName("prophet")
	p2, _ := ProtocolByName("prophet")
	if p1.(*Prophet).table == p2.(*Prophet).table {
		t.Fatal("prophet instances share state")
	}
	if _, ok := ProtocolByName("spray-and-wait-predict"); !ok {
		t.Fatal("snw-predict unknown")
	}
	f1, _ := ProtocolByName("spray-and-focus")
	f2, _ := ProtocolByName("spray-and-focus")
	f1.(*SprayAndFocus).OnContact(nil, &Host{id: 3}, 5)
	if _, ok := lastContactOf(&Host{proto: f2}, 3); ok {
		t.Fatal("spray-and-focus instances share state")
	}
}
