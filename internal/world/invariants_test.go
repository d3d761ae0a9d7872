package world

import (
	"testing"

	"sdsrp/internal/config"
	"sdsrp/internal/msg"
	"sdsrp/internal/obs"
)

// countHolders tallies, for every message, how many buffers currently hold
// a copy: the ground truth the ledger's live counts must match.
func countHolders(w *World) map[msg.ID]int {
	holders := map[msg.ID]int{}
	for _, h := range w.Hosts {
		for _, s := range h.Buffer().Items() {
			holders[s.M.ID]++
		}
	}
	return holders
}

// The ledger's live count must agree exactly with the buffers at any stop
// point: every store/remove path (originate, spray, relay, handoff,
// delivery cleanup, eviction, expiry) has an event the ledger folds.
func TestTrackerMatchesBuffersExactly(t *testing.T) {
	for _, pol := range []string{"SprayAndWait", "SDSRP", "SprayAndWait-C"} {
		sc := smallScenario(pol)
		sc.GenIntervalLo, sc.GenIntervalHi = 10, 15 // congested
		ledger := obs.NewLedger()
		w, err := Build(sc, WithTracer(ledger))
		if err != nil {
			t.Fatal(err)
		}
		// Check at several intermediate horizons, not just the end.
		for _, horizon := range []float64{500, 1500, 3000, sc.Duration} {
			if !w.started {
				w.Manager.Start()
				w.started = true
			}
			w.Engine.Run(horizon)
			holders := countHolders(w)
			// Every message the ledger knows, held or not: it must not
			// believe in copies that do not exist, nor miss any that do.
			recs := ledger.Records()
			for _, r := range recs {
				if r.LiveCopies != holders[r.ID] {
					t.Fatalf("%s at t=%v: ledger live(%d)=%d, buffers hold %d",
						pol, horizon, r.ID, r.LiveCopies, holders[r.ID])
				}
				delete(holders, r.ID)
			}
			if len(holders) != 0 {
				t.Fatalf("%s at t=%v: buffers hold %d messages the ledger never saw", pol, horizon, len(holders))
			}
			if len(recs) == 0 {
				t.Fatalf("%s at t=%v: no messages to compare", pol, horizon)
			}
		}
	}
}

// Seen must be at least the number of current holders excluding the
// source, and at most N-1.
func TestTrackerSeenBounds(t *testing.T) {
	sc := smallScenario("SprayAndWait")
	ledger := obs.NewLedger()
	w, err := Build(sc, WithTracer(ledger))
	if err != nil {
		t.Fatal(err)
	}
	mustRun(t, w)
	holders := countHolders(w)
	for _, r := range ledger.Records() {
		if n := holders[r.ID]; r.Seen < n-1 { // source may be among the holders
			t.Fatalf("seen(%d)=%d < holders-1=%d", r.ID, r.Seen, n-1)
		}
		if r.Seen > sc.Nodes-1 {
			t.Fatalf("seen(%d)=%d exceeds N-1", r.ID, r.Seen)
		}
	}
}

// Hop counts of delivered messages are bounded by log2(L)+1 sprays plus the
// delivery hop under binary spray-and-wait... in fact each copy's hop count
// is bounded by the spray-tree depth: hops <= log2(L)+1.
func TestHopBoundUnderBinarySpray(t *testing.T) {
	sc := smallScenario("SprayAndWait")
	sc.InitialCopies = 8
	w, err := Build(sc)
	if err != nil {
		t.Fatal(err)
	}
	mustRun(t, w)
	// log2(8) = 3 spray hops max, +1 for the final delivery hop.
	const maxHops = 4
	for _, h := range w.Hosts {
		for _, s := range h.Buffer().Items() {
			if s.Hops > maxHops-1 {
				t.Fatalf("buffered copy of %d has %d hops (max spray depth 3)", s.M.ID, s.Hops)
			}
		}
	}
	if avg := w.Collector.Summarize().AvgHops; avg > maxHops {
		t.Fatalf("avg hops %v exceeds bound %d", avg, maxHops)
	}
}

// Every message that was ever created is accounted for at the end: its
// copies are either still buffered, dropped, expired, or consumed by
// delivery. We verify the weaker end-to-end identity that no copies exist
// for messages past their TTL after an expiry sweep.
func TestNoZombieCopiesAfterExpiry(t *testing.T) {
	sc := smallScenario("SDSRP")
	sc.TTL = 800 // much shorter than the 4000 s horizon
	w, err := Build(sc)
	if err != nil {
		t.Fatal(err)
	}
	mustRun(t, w)
	now := w.Engine.Now()
	for _, h := range w.Hosts {
		for _, s := range h.Buffer().Items() {
			if now-s.M.Created > sc.TTL+sc.ExpiryInterval {
				t.Fatalf("zombie copy of message %d: age %v", s.M.ID, now-s.M.Created)
			}
		}
	}
	if w.Collector.ExpiredDrops == 0 {
		t.Fatal("short-TTL run expired nothing")
	}
}

// Delivered messages are never re-accepted by their destination, even
// under Epidemic flooding where every neighbour retries.
func TestNoDuplicateDeliveries(t *testing.T) {
	sc := smallScenario("SprayAndWait")
	sc.ProtocolName = "epidemic"
	w, err := Build(sc)
	if err != nil {
		t.Fatal(err)
	}
	r := mustRun(t, w)
	if r.Duplicates != 0 {
		t.Fatalf("%d duplicate deliveries slipped through", r.Duplicates)
	}
	_ = config.MB
}
