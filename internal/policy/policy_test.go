package policy

import (
	"math"
	"sort"
	"testing"

	"sdsrp/internal/buffer"
	"sdsrp/internal/core"
	"sdsrp/internal/msg"
	"sdsrp/internal/rng"
)

// fakeView is a minimal policy.View with fixed estimates per message id.
type fakeView struct {
	now    float64
	nodes  int
	lambda float64
	seen   map[msg.ID]float64
	live   map[msg.ID]float64
}

func (f *fakeView) Now() float64    { return f.now }
func (f *fakeView) Nodes() int      { return f.nodes }
func (f *fakeView) Lambda() float64 { return f.lambda }
func (f *fakeView) EIMin() float64 {
	if f.lambda == 0 {
		return 0
	}
	return 1 / (f.lambda * float64(f.nodes-1))
}
func (f *fakeView) SeenEstimate(s *msg.Stored) float64 { return f.seen[s.M.ID] }
func (f *fakeView) LiveEstimate(s *msg.Stored) float64 {
	if v, ok := f.live[s.M.ID]; ok {
		return v
	}
	return 1
}
func (f *fakeView) TrueSeen(s *msg.Stored) float64 { return f.SeenEstimate(s) }
func (f *fakeView) TrueLive(s *msg.Stored) float64 { return f.LiveEstimate(s) }

func defaultView() *fakeView {
	return &fakeView{now: 1000, nodes: 100, lambda: 1.0 / 1200,
		seen: map[msg.ID]float64{}, live: map[msg.ID]float64{}}
}

func stored(id msg.ID, received float64, copies, initial int, created, ttl float64) *msg.Stored {
	m := &msg.Message{ID: id, Size: 100, Created: created, TTL: ttl, InitialCopies: initial}
	return &msg.Stored{M: m, Copies: copies, ReceivedAt: received}
}

func ids(items []*msg.Stored) []msg.ID {
	out := make([]msg.ID, len(items))
	for i, s := range items {
		out[i] = s.M.ID
	}
	return out
}

func wantIDs(t *testing.T, got []*msg.Stored, want ...msg.ID) {
	t.Helper()
	g := ids(got)
	if len(g) != len(want) {
		t.Fatalf("got %v, want %v", g, want)
	}
	for i := range want {
		if g[i] != want[i] {
			t.Fatalf("got %v, want %v", g, want)
		}
	}
}

// sendOrder is the offer order NextOffer's one-pass pick implies: the
// copies sorted by SendsBefore on their send scores.
func sendOrder(p Policy, v View, items []*msg.Stored) []*msg.Stored {
	scores := make(map[msg.ID]float64, len(items))
	for _, s := range items {
		scores[s.M.ID] = p.SendScore(v, s)
	}
	out := append([]*msg.Stored(nil), items...)
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		return SendsBefore(scores[a.M.ID], a.M.ID, scores[b.M.ID], b.M.ID)
	})
	return out
}

func TestFIFOSendOrder(t *testing.T) {
	v := defaultView()
	items := []*msg.Stored{
		stored(1, 300, 4, 16, 0, 18000),
		stored(2, 100, 4, 16, 0, 18000),
		stored(3, 200, 4, 16, 0, 18000),
	}
	wantIDs(t, sendOrder(FIFO{}, v, items), 2, 3, 1)
}

func TestTTLRatioSendOrder(t *testing.T) {
	v := defaultView()
	items := []*msg.Stored{
		stored(1, 0, 4, 16, 0, 2000),   // remaining 1000/2000 = 0.5
		stored(2, 0, 4, 16, 900, 2000), // remaining 1900/2000 = 0.95
		stored(3, 0, 4, 16, 0, 1100),   // remaining 100/1100 ≈ 0.09
	}
	wantIDs(t, sendOrder(TTLRatio{}, v, items), 2, 1, 3)
}

func TestCopiesRatioSendOrder(t *testing.T) {
	v := defaultView()
	items := []*msg.Stored{
		stored(1, 0, 1, 16, 0, 18000),  // 1/16
		stored(2, 0, 16, 16, 0, 18000), // 1
		stored(3, 0, 4, 8, 0, 18000),   // 0.5
	}
	wantIDs(t, sendOrder(CopiesRatio{}, v, items), 2, 3, 1)
}

func TestSDSRPSendOrderPrefersUnspread(t *testing.T) {
	v := defaultView()
	// Same copies/TTL; message 2 is known to be far more spread.
	v.seen[1], v.live[1] = 2, 2
	v.seen[2], v.live[2] = 80, 40
	items := []*msg.Stored{
		stored(1, 0, 8, 16, 0, 18000),
		stored(2, 0, 8, 16, 0, 18000),
	}
	wantIDs(t, sendOrder(SDSRP{}, v, items), 1, 2)
}

func TestSDSRPNoLambdaFallsBackToTTL(t *testing.T) {
	v := defaultView()
	v.lambda = 0
	items := []*msg.Stored{
		stored(1, 0, 8, 16, 0, 2000),  // dies at 2000, now=1000
		stored(2, 0, 8, 16, 0, 18000), // dies much later
	}
	wantIDs(t, sendOrder(SDSRP{}, v, items), 2, 1)
}

func TestSendOrderDeterministicTies(t *testing.T) {
	v := defaultView()
	items := []*msg.Stored{
		stored(3, 100, 4, 16, 0, 18000),
		stored(1, 100, 4, 16, 0, 18000),
		stored(2, 100, 4, 16, 0, 18000),
	}
	wantIDs(t, sendOrder(FIFO{}, v, items), 1, 2, 3)
}

// SendsBefore is a strict total order on (score, id) pairs with distinct
// ids: higher scores first, NaN after every number, ties and NaN pairs on
// ascending id.
func TestSendsBeforeRanksNaNLast(t *testing.T) {
	nan := math.NaN()
	inf := math.Inf(1)
	// Listed in offer order.
	order := []struct {
		score float64
		id    msg.ID
	}{
		{inf, 9}, {2, 1}, {2, 4}, {0, 3}, {math.Copysign(0, -1), 5},
		{math.Inf(-1), 2}, {nan, 6}, {nan, 7},
	}
	for i, a := range order {
		for j, b := range order {
			if got, want := SendsBefore(a.score, a.id, b.score, b.id), i < j; got != want {
				t.Errorf("SendsBefore(%v#%d, %v#%d) = %v, want %v", a.score, a.id, b.score, b.id, got, want)
			}
		}
	}
}

// evictsBefore is a strict total order on (score, id) pairs with distinct
// ids: lower scores first, NaN before every number, ties and NaN pairs on
// ascending id.
func TestEvictsBeforeRanksNaNFirst(t *testing.T) {
	nan := math.NaN()
	inf := math.Inf(1)
	// Listed in eviction order.
	order := []struct {
		score float64
		id    msg.ID
	}{
		{nan, 6}, {nan, 7}, {math.Inf(-1), 2}, {0, 3}, {math.Copysign(0, -1), 5},
		{2, 1}, {2, 4}, {inf, 9},
	}
	for i, a := range order {
		for j, b := range order {
			if got, want := evictsBefore(a.score, a.id, b.score, b.id), i < j; got != want {
				t.Errorf("evictsBefore(%v#%d, %v#%d) = %v, want %v", a.score, a.id, b.score, b.id, got, want)
			}
		}
	}
}

// dropScores is a policy that reads each message's drop score from the map;
// every send score is 0.
type dropScores map[msg.ID]float64

func (dropScores) Name() string                              { return "drop-scores" }
func (dropScores) SendScore(View, *msg.Stored) float64       { return 0 }
func (p dropScores) DropScore(_ View, s *msg.Stored) float64 { return p[s.M.ID] }

// A NaN drop score ranks below every number whatever the buffer order: the
// NaN-scored copy is evicted first, and a NaN-scored newcomer is rejected
// from a buffer of numbers.
func TestPlanEvictionRanksNaNFirst(t *testing.T) {
	nan := math.NaN()
	v := defaultView()
	for _, order := range [][]msg.ID{{1, 2, 3}, {2, 1, 3}, {3, 2, 1}} {
		var entries []*msg.Stored
		for _, id := range order {
			entries = append(entries, stored(id, 0, 4, 16, 0, 18000))
		}
		b := fillBuffer(t, entries...)
		victims, ok := planEviction(dropScores{1: 1, 2: nan, 3: 3, 9: 9}, v, b, stored(9, 0, 4, 16, 0, 18000))
		if !ok {
			t.Fatalf("buffer order %v: newcomer scoring 9 rejected", order)
		}
		wantIDs(t, victims, 2)
	}
	b := fillBuffer(t, stored(1, 0, 4, 16, 0, 18000), stored(3, 0, 4, 16, 0, 18000))
	victims, ok := planEviction(dropScores{1: 1, 3: 3, 9: nan}, v, b, stored(9, 0, 4, 16, 0, 18000))
	if ok || victims != nil {
		t.Fatalf("NaN-scored newcomer accepted: victims=%v", ids(victims))
	}
}

// planEviction is Orderer.PlanEviction on a throwaway Orderer.
func planEviction(p Policy, v View, buf *buffer.Buffer, incoming *msg.Stored) ([]*msg.Stored, bool) {
	var o Orderer
	victims, _, _, ok := o.PlanEviction(p, v, buf, incoming)
	return victims, ok
}

func fillBuffer(t *testing.T, entries ...*msg.Stored) *buffer.Buffer {
	t.Helper()
	var total int64
	for _, e := range entries {
		total += e.M.Size
	}
	b := buffer.New(total) // exactly full
	for _, e := range entries {
		if err := b.Add(e); err != nil {
			t.Fatal(err)
		}
	}
	return b
}

func TestPlanEvictionFitsWithoutVictims(t *testing.T) {
	v := defaultView()
	b := buffer.New(1000)
	b.Add(stored(1, 0, 4, 16, 0, 18000))
	victims, ok := planEviction(FIFO{}, v, b, stored(2, 1000, 4, 16, 0, 18000))
	if !ok || len(victims) != 0 {
		t.Fatalf("fit case: victims=%v ok=%v", ids(victims), ok)
	}
}

func TestPlanEvictionFIFOEvictsOldest(t *testing.T) {
	v := defaultView()
	b := fillBuffer(t,
		stored(1, 100, 4, 16, 0, 18000),
		stored(2, 50, 4, 16, 0, 18000),
		stored(3, 200, 4, 16, 0, 18000),
	)
	victims, ok := planEviction(FIFO{}, v, b, stored(4, 1000, 4, 16, 0, 18000))
	if !ok {
		t.Fatal("FIFO rejected a newcomer")
	}
	wantIDs(t, victims, 2)
}

func TestPlanEvictionRejectsWeakNewcomer(t *testing.T) {
	v := defaultView()
	// SW-O: newcomer nearly expired, buffered messages fresh -> reject.
	b := fillBuffer(t,
		stored(1, 0, 4, 16, 900, 18000),
		stored(2, 0, 4, 16, 950, 18000),
	)
	in := stored(3, 1000, 4, 16, 0, 1001) // remaining 1/1001
	victims, ok := planEviction(TTLRatio{}, v, b, in)
	if ok || victims != nil {
		t.Fatalf("weak newcomer accepted: victims=%v", ids(victims))
	}
}

func TestPlanEvictionMultipleVictims(t *testing.T) {
	v := defaultView()
	small1 := stored(1, 10, 4, 16, 0, 18000)
	small2 := stored(2, 20, 4, 16, 0, 18000)
	big := &msg.Stored{M: &msg.Message{ID: 3, Size: 200, Created: 0, TTL: 18000, InitialCopies: 16}, Copies: 4, ReceivedAt: 900}
	b := fillBuffer(t, small1, small2) // capacity 200, full
	victims, ok := planEviction(FIFO{}, v, b, big)
	if !ok {
		t.Fatal("big newcomer rejected despite evictable victims")
	}
	wantIDs(t, victims, 1, 2)
}

func TestPlanEvictionStopsEarly(t *testing.T) {
	v := defaultView()
	b := buffer.New(250)
	b.Add(stored(1, 10, 4, 16, 0, 18000))
	b.Add(stored(2, 20, 4, 16, 0, 18000)) // used 200, free 50
	victims, ok := planEviction(FIFO{}, v, b, stored(3, 900, 4, 16, 0, 18000))
	if !ok {
		t.Fatal("rejected")
	}
	wantIDs(t, victims, 1) // one eviction suffices (100 freed + 50 free)
}

func TestPlanEvictionOversizedMessage(t *testing.T) {
	v := defaultView()
	b := buffer.New(150)
	in := &msg.Stored{M: &msg.Message{ID: 1, Size: 151, TTL: 10}, Copies: 1}
	if _, ok := planEviction(FIFO{}, v, b, in); ok {
		t.Fatal("message larger than capacity accepted")
	}
}

func TestPlanEvictionPartialRejection(t *testing.T) {
	// The newcomer outranks one victim but not the next: rejection, and no
	// victims reported (nothing should be dropped for a refused message).
	v := defaultView()
	b := fillBuffer(t,
		stored(1, 0, 4, 16, 500, 18000), // ratio (18000-500)/18000
		stored(2, 0, 4, 16, 990, 18000), // fresher
	)
	in := &msg.Stored{M: &msg.Message{ID: 3, Size: 200, Created: 800, TTL: 18000, InitialCopies: 16}, Copies: 4, ReceivedAt: 1000}
	victims, ok := planEviction(TTLRatio{}, v, b, in)
	if ok {
		t.Fatal("accepted though the second victim outranks the newcomer")
	}
	if victims != nil {
		t.Fatalf("rejection must not name victims, got %v", ids(victims))
	}
}

func TestOracleUtilityUsesTruth(t *testing.T) {
	v := defaultView()
	v.seen[1], v.live[1] = 0, 1 // estimates say unspread
	// fakeView's TrueSeen == SeenEstimate, so Oracle and SDSRP agree here.
	s := stored(1, 0, 8, 16, 0, 18000)
	if (OracleUtility{}).SendScore(v, s) != (SDSRP{}).SendScore(v, s) {
		t.Fatal("oracle and estimate disagree on identical inputs")
	}
}

func TestSDSRPTaylorApproachesSDSRP(t *testing.T) {
	v := defaultView()
	v.seen[1], v.live[1] = 10, 5
	s := stored(1, 0, 8, 16, 0, 18000)
	exact := SDSRP{}.SendScore(v, s)
	k1 := SDSRPTaylor{K: 1}.SendScore(v, s)
	k8 := SDSRPTaylor{K: 8}.SendScore(v, s)
	k64 := SDSRPTaylor{K: 64}.SendScore(v, s)
	if !(abs(k64-exact) <= abs(k8-exact) && abs(k8-exact) <= abs(k1-exact)) {
		t.Fatalf("Taylor error not shrinking: k1=%v k8=%v k64=%v exact=%v", k1, k8, k64, exact)
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

func TestByName(t *testing.T) {
	stream := rng.New(1)
	for _, name := range []string{"SprayAndWait", "SprayAndWait-O", "SprayAndWait-C",
		"SDSRP", "OracleUtility", "Knapsack", "DropLargest", "SDSRP-Taylor3"} {
		p, err := ByName(name, stream)
		if err != nil {
			t.Fatalf("ByName(%q): %v", name, err)
		}
		if p.Name() == "" {
			t.Fatalf("ByName(%q) returned unnamed policy", name)
		}
	}
	if _, err := ByName("Bogus", stream); err == nil {
		t.Fatal("unknown name accepted")
	}
	if p, err := ByName("SDSRP-Taylor3", stream); err != nil || p.Name() != "SDSRP-Taylor3" {
		t.Fatalf("Taylor parse wrong: %v %v", p, err)
	}
}

// The priority inversion at the heart of the paper (Fig. 2) must flow
// through the policy layer: with SDSRP the scarce, urgent message outranks
// the widely-spread one even though SW-O and SW-C both rank it last.
func TestSDSRPDisagreesWithHeuristics(t *testing.T) {
	v := defaultView()
	v.seen[1], v.live[1] = 60, 40
	v.seen[2], v.live[2] = 4, 3
	spread := stored(1, 0, 16, 64, 0, 18000) // high copies & TTL, widely seen
	scarce := stored(2, 0, 2, 64, 0, 3500)   // few copies, short TTL, barely seen
	items := []*msg.Stored{spread, scarce}

	wantIDs(t, sendOrder(SDSRP{}, v, items), 2, 1)
	wantIDs(t, sendOrder(TTLRatio{}, v, items), 1, 2)
	wantIDs(t, sendOrder(CopiesRatio{}, v, items), 1, 2)
	_ = core.PeakPR // documents why: the spread message sits past the peak
}

func BenchmarkPlanEviction(b *testing.B) {
	v := defaultView()
	buf := buffer.New(800)
	for i := 0; i < 8; i++ {
		buf.Add(stored(msg.ID(i+1), float64(i*100), 1+i%16, 32, 0, 18000))
	}
	incoming := stored(99, 1000, 8, 32, 500, 18000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		planEviction(SDSRP{}, v, buf, incoming)
	}
}
