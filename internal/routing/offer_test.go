package routing

import (
	"math"
	"sort"
	"testing"

	"sdsrp/internal/core"
	"sdsrp/internal/msg"
	"sdsrp/internal/policy"
	"sdsrp/internal/rng"
)

// builtinPolicies and protocolNames span every built-in strategy and every
// protocol ProtocolByName knows.
var (
	builtinPolicies = []string{"SprayAndWait", "SprayAndWait-O", "SprayAndWait-C",
		"SDSRP", "SDSRP-Taylor3", "OracleUtility", "Knapsack", "DropLargest"}
	protocolNames = []string{"spray-and-wait", "spray-and-wait-source", "epidemic",
		"direct", "spray-and-focus", "prophet", "spray-and-wait-predict"}
)

// offerProbe is called before every NextOffer that drive makes.
type offerProbe func(a, b *Host, skip func(msg.ID) bool)

// randomNet builds six hosts running pol and fresh instances of the named
// protocol, with drop lists, λ estimators, a truth ledger and, on some
// seeds, ACKs. Buffers are small enough on some seeds to evict.
func randomNet(t *testing.T, r *rng.Stream, pol policy.Policy, protoName string) *testNet {
	t.Helper()
	tn := emptyNet()
	const n = 6
	buf := []int64{700, 1500, 100000}[r.IntN(3)]
	acks := r.Bool(0.3)
	for i := 0; i < n; i++ {
		proto, ok := ProtocolByName(protoName)
		if !ok {
			t.Fatalf("unknown protocol %q", protoName)
		}
		tn.hosts = append(tn.hosts, NewHost(HostConfig{
			ID: i, Nodes: n, Buffer: buf, Policy: pol, Proto: proto,
			Rate:        core.NewLambdaEstimator(1200, 1),
			UseDropList: true, UseAcks: acks,
			Clock:  func() float64 { return tn.now },
			Tracer: tn.tracer(nil), Truth: tn.ledger,
		}))
	}
	return tn
}

// drive runs random traffic and contacts on tn at coarse times, so copies
// tie on score, expire without being swept, and reach peers that hold,
// dropped or consumed them. Every message gets the same TTL, as in a
// world, because the expiry sweep requires ids to expire in order. Each
// contact transfers up to a random number of offers each way, refusing
// some ids up front; probe sees every offer request first.
func drive(tn *testNet, r *rng.Stream, steps int, probe offerProbe) {
	n := len(tn.hosts)
	next := msg.ID(0)
	ttl := []float64{200, 600, 3000}[r.IntN(3)]
	for step := 0; step < steps; step++ {
		tn.now += float64(10 * r.IntN(3))
		switch x := r.Float64(); {
		case x < 0.35:
			src := r.IntN(n)
			dst := (src + 1 + r.IntN(n-1)) % n
			m := tn.message(next, src, dst, []int{1, 2, 3, 8, 16}[r.IntN(5)],
				int64(100*(1+r.IntN(3))), ttl)
			next++
			tn.hosts[src].Originate(m, tn.now)
		case x < 0.4:
			for _, h := range tn.hosts {
				h.ExpireMessages(tn.now)
			}
		default:
			a := tn.hosts[r.IntN(n)]
			b := tn.hosts[(a.id+1+r.IntN(n-1))%n]
			a.OnLinkUp(b, tn.now)
			b.OnLinkUp(a, tn.now)
			exchange(tn, r, a, b, probe)
			exchange(tn, r, b, a, probe)
			a.OnLinkDown(b, tn.now)
			b.OnLinkDown(a, tn.now)
		}
	}
}

func exchange(tn *testNet, r *rng.Stream, a, b *Host, probe offerProbe) {
	refused := map[msg.ID]bool{}
	for _, s := range a.buf.Items() {
		if r.Bool(0.15) {
			refused[s.M.ID] = true
		}
	}
	skip := func(id msg.ID) bool { return refused[id] }
	for budget := r.IntN(6); budget > 0; budget-- {
		probe(a, b, skip)
		offer, ok := a.NextOffer(b, skip)
		if !ok {
			return
		}
		if !b.PreAccept(offer, tn.now) || !CommitTransfer(a, b, offer, tn.now) {
			refused[offer.S.M.ID] = true
		}
	}
}

// offerable returns a's copies NextOffer may offer to b: unexpired, not
// skipped, and Eligible.
func offerable(a, b *Host, skip func(msg.ID) bool) []*msg.Stored {
	var out []*msg.Stored
	now := a.clock()
	for _, s := range a.buf.Items() {
		if s.M.Expired(now) || skip(s.M.ID) {
			continue
		}
		if _, ok := a.proto.Eligible(a, b, s); ok {
			out = append(out, s)
		}
	}
	return out
}

// referenceOffer is the sort-then-filter pick NextOffer replaced: score the
// whole buffer, sort it by score descending (NaN last) then message ID
// ascending, and take the first copy that is unexpired, not skipped and
// Eligible.
func referenceOffer(a, b *Host, skip func(msg.ID) bool) (Offer, bool) {
	items := append([]*msg.Stored(nil), a.buf.Items()...)
	scores := make(map[msg.ID]float64, len(items))
	for _, s := range items {
		scores[s.M.ID] = a.pol.SendScore(a, s)
	}
	sort.Slice(items, func(i, j int) bool {
		x, y := scores[items[i].M.ID], scores[items[j].M.ID]
		if math.IsNaN(x) != math.IsNaN(y) {
			return math.IsNaN(y)
		}
		if x > y || x < y {
			return x > y
		}
		return items[i].M.ID < items[j].M.ID
	})
	now := a.clock()
	for _, s := range items {
		if s.M.Expired(now) || skip(s.M.ID) {
			continue
		}
		if kind, ok := a.proto.Eligible(a, b, s); ok {
			return Offer{S: s, Kind: kind}, true
		}
	}
	return Offer{}, false
}

// NextOffer's one-pass pick must equal sort-then-filter for every built-in
// policy under every protocol, since no Eligible has side effects.
func TestNextOfferMatchesSortThenFilter(t *testing.T) {
	// seen counts the states the checks met; each must occur.
	seen := map[string]int{}
	for _, name := range builtinPolicies {
		pol, err := policy.ByName(name, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, proto := range protocolNames {
			for seed := uint64(1); seed <= 8; seed++ {
				r := rng.New(seed)
				tn := randomNet(t, r, pol, proto)
				drive(tn, r, 150, func(a, b *Host, skip func(msg.ID) bool) {
					want, wok := referenceOffer(a, b, skip)
					got, ok := a.NextOffer(b, skip)
					if ok != wok || got != want {
						t.Fatalf("%s/%s seed %d t=%v: NextOffer = %v %v, sort-then-filter = %v %v",
							name, proto, seed, tn.now, offerID(got), ok, offerID(want), wok)
					}
					countStates(seen, a, b, skip, got)
				})
			}
		}
	}
	for _, state := range []string{"offer", "tie", "expired", "refused", "peer holds",
		"peer dropped", "peer consumed", "predictabilities"} {
		if seen[state] == 0 {
			t.Errorf("no check met state %q (%v)", state, seen)
		}
	}
}

// countStates tallies what the buffer of a held when it offered got to b.
func countStates(seen map[string]int, a, b *Host, skip func(msg.ID) bool, got Offer) {
	if got.S != nil {
		seen["offer"]++
		for _, s := range offerable(a, b, skip) {
			if s != got.S && a.pol.SendScore(a, s) == a.pol.SendScore(a, got.S) {
				seen["tie"]++
				break
			}
		}
	}
	now := a.clock()
	for _, s := range a.buf.Items() {
		id := s.M.ID
		switch {
		case s.M.Expired(now):
			seen["expired"]++
		case skip(id):
			seen["refused"]++
		case b.buf.Has(id):
			seen["peer holds"]++
		case b.drops.RejectsIncoming(id):
			seen["peer dropped"]++
		case b.received[id]:
			seen["peer consumed"]++
		}
	}
	if pt := predictTableOf(a); pt != nil && pt.Len() > 0 {
		seen["predictabilities"]++
	}
}

func offerID(o Offer) any {
	if o.S == nil {
		return "none"
	}
	return [2]any{o.S.M.ID, o.Kind}
}

// countingPolicy is FIFO that counts its SendScore calls per message.
type countingPolicy struct {
	policy.FIFO
	calls map[msg.ID]int
}

func (p *countingPolicy) SendScore(v policy.View, s *msg.Stored) float64 {
	p.calls[s.M.ID]++
	return p.FIFO.SendScore(v, s)
}

// NextOffer scores each offerable copy exactly once and nothing else, so a
// policy that draws from its stream draws once per offerable copy.
func TestNextOfferScoresOnlyOfferableCopies(t *testing.T) {
	var scored, buffered int
	for _, proto := range protocolNames {
		pol := &countingPolicy{calls: map[msg.ID]int{}}
		r := rng.New(7)
		tn := randomNet(t, r, pol, proto)
		drive(tn, r, 200, func(a, b *Host, skip func(msg.ID) bool) {
			want := offerable(a, b, skip)
			clear(pol.calls)
			a.NextOffer(b, skip)
			for _, s := range want {
				if pol.calls[s.M.ID] != 1 {
					t.Fatalf("%s: offerable copy %d scored %d times", proto, s.M.ID, pol.calls[s.M.ID])
				}
			}
			if len(pol.calls) != len(want) {
				t.Fatalf("%s: scored %d copies, %d offerable", proto, len(pol.calls), len(want))
			}
			scored += len(want)
			buffered += a.buf.Len()
		})
	}
	if scored == 0 || scored == buffered {
		t.Fatalf("scored %d of %d buffered copies: the drive must offer some and filter some", scored, buffered)
	}
}

// nanPolicy is FIFO, except that it scores every third message NaN.
type nanPolicy struct{ policy.FIFO }

func (p nanPolicy) SendScore(v policy.View, s *msg.Stored) float64 {
	if s.M.ID%3 == 0 {
		return math.NaN()
	}
	return p.FIFO.SendScore(v, s)
}

// A NaN score never outranks a number: NextOffer picks a NaN-scored copy
// only when no offerable copy has a number, and then the lowest id.
func TestNextOfferRanksNaNLast(t *testing.T) {
	var nanOffers, numberOffers int
	for _, proto := range protocolNames {
		r := rng.New(11)
		tn := randomNet(t, r, nanPolicy{}, proto)
		drive(tn, r, 200, func(a, b *Host, skip func(msg.ID) bool) {
			offer, ok := a.NextOffer(b, skip)
			if !ok {
				return
			}
			got := a.pol.SendScore(a, offer.S)
			for _, s := range offerable(a, b, skip) {
				score := a.pol.SendScore(a, s)
				switch {
				case math.IsNaN(got) && !math.IsNaN(score):
					t.Fatalf("%s: offered NaN-scored %d over %d scored %v", proto, offer.S.M.ID, s.M.ID, score)
				case math.IsNaN(got) && s.M.ID < offer.S.M.ID:
					t.Fatalf("%s: offered NaN-scored %d over lower id %d", proto, offer.S.M.ID, s.M.ID)
				}
			}
			if math.IsNaN(got) {
				nanOffers++
			} else {
				numberOffers++
			}
		})
	}
	if nanOffers == 0 || numberOffers == 0 {
		t.Fatalf("%d NaN and %d numeric offers: both must occur", nanOffers, numberOffers)
	}
}

// Picking an offer reads the buffer without reordering it: insertion order
// is what FIFO eviction and the expiry sweep walk.
func TestNextOfferLeavesBufferOrder(t *testing.T) {
	tn := newTestNet(4, policy.TTLRatio{}, SprayAndWait{Binary: true}, 10000, false)
	a, b := tn.hosts[0], tn.hosts[1]
	for i, ttl := range []float64{1000, 5000, 2000} {
		a.Originate(tn.message(msg.ID(i), 0, 3, 8, 500, ttl), tn.now)
	}
	tn.now = 10
	if offer, ok := a.NextOffer(b, nil); !ok || offer.S.M.ID != 1 {
		t.Fatalf("offer = %v, want the freshest copy 1", offerID(offer))
	}
	for i, s := range a.buf.Items() {
		if s.M.ID != msg.ID(i) {
			t.Fatalf("buffer order changed: position %d holds %d", i, s.M.ID)
		}
	}
}
