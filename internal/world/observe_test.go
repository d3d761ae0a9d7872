package world

import (
	"fmt"
	"testing"

	"sdsrp/internal/config"
	"sdsrp/internal/fault"
	"sdsrp/internal/msg"
	"sdsrp/internal/obs"
)

// TestLedgerMatchesTracker checks the event log against the simulator's
// buffers: at every distinct event time of the run, the ledger folded from
// the events so far must give each message the live-copy count n_i the
// buffers hold, and the m_i of the carrier set the test accumulates from
// buffers and destination receipts. The variants cover every way a copy
// enters or leaves a buffer without a policy or TTL event of its own: ACK
// purges, wiping reboots, black holes, radio loss, and the protocols whose
// forwards differ from binary spray.
func TestLedgerMatchesTracker(t *testing.T) {
	variants := []struct {
		name   string
		mutate func(*config.Scenario)
		// removal is a removal cause or forward kind the variant must
		// produce, so it cannot pass without exercising its path.
		removal string
	}{
		{"sdsrp", func(*config.Scenario) {}, "policy"},
		{"acks", func(sc *config.Scenario) { sc.UseAcks = true }, "ack"},
		{"wiping-churn", func(sc *config.Scenario) {
			sc.Faults = fault.Config{Churn: fault.Churn{MeanUp: 300, MeanDown: 120, WipeOnReboot: true}}
		}, "wipe"},
		{"black-holes", func(sc *config.Scenario) { sc.Faults.BlackHoleFraction = 0.2 }, ""},
		{"transfer-loss", func(sc *config.Scenario) { sc.Faults.TransferLossProb = 0.1 }, ""},
		{"spray-and-focus", func(sc *config.Scenario) { sc.ProtocolName = "spray-and-focus" }, "handoff"},
		{"epidemic", func(sc *config.Scenario) { sc.ProtocolName = "epidemic" }, "relay"},
		{"prophet", func(sc *config.Scenario) { sc.ProtocolName = "prophet" }, "relay"},
		{"spray-and-wait-source", func(sc *config.Scenario) { sc.ProtocolName = "spray-and-wait-source" }, "spray-source"},
	}
	for _, v := range variants {
		for _, seed := range []uint64{1, 2, 3} {
			sc := diffBase()
			sc.Seed = seed
			v.mutate(&sc)
			t.Run(fmt.Sprintf("%s-%d", v.name, seed), func(t *testing.T) {
				t.Parallel()
				// A first run lists the distinct event times; a second one
				// stops at each of them.
				var times eventTimes
				w, err := Build(sc, WithTracer(&times))
				if err != nil {
					t.Fatal(err)
				}
				res := mustRun(t, w)
				ledger := obs.NewLedger()
				if w, err = Build(sc, WithTracer(ledger)); err != nil {
					t.Fatal(err)
				}
				w.Manager.Start()
				w.started = true
				carriers := map[msg.ID]map[int]bool{}
				for _, at := range times {
					w.Engine.Run(at)
					assertLedgerMatchesBuffers(t, w, ledger, carriers)
				}
				if got := w.Result().Summary; got != res.Summary {
					t.Fatalf("stopping at every event time changed the run:\n got %+v\nwant %+v", got, res.Summary)
				}
				recs := ledger.Records()
				if len(recs) != res.Created || res.Created == 0 {
					t.Fatalf("ledger has %d records, run created %d", len(recs), res.Created)
				}
				seen, lost := map[string]bool{}, 0
				for _, r := range recs {
					for _, rm := range r.Removals {
						seen[rm.Cause] = true
					}
					for _, f := range r.Forwards {
						seen[f.Kind] = true
					}
					lost += r.Lost
				}
				if v.removal != "" && !seen[v.removal] {
					t.Errorf("variant never produced %q", v.removal)
				}
				if sc.Faults.BlackHoleFraction+sc.Faults.TransferLossProb > 0 && lost == 0 {
					t.Error("variant lost no transfers")
				}
			})
		}
	}
}

// eventTimes records the distinct times of a run's events, in order.
type eventTimes []float64

func (e *eventTimes) Emit(ev obs.Event) {
	if n := len(*e); n == 0 || ev.T > (*e)[n-1] {
		*e = append(*e, ev.T)
	}
}

// assertLedgerMatchesBuffers compares every message the ledger knows with
// the hosts' state: n_i with the buffers holding a copy, m_i with carriers,
// which it first extends by every host that buffers a copy or, as
// destination, has consumed one. The ledger's mid-run queries, asked by a
// node outside the run, must give the same answers.
func assertLedgerMatchesBuffers(t *testing.T, w *World, ledger *obs.Ledger, carriers map[msg.ID]map[int]bool) {
	t.Helper()
	carry := func(id msg.ID, node int) {
		if carriers[id] == nil {
			carriers[id] = map[int]bool{}
		}
		carriers[id][node] = true
	}
	for _, h := range w.Hosts {
		for _, s := range h.Buffer().Items() {
			carry(s.M.ID, h.ID())
		}
	}
	holders := countHolders(w)
	for _, r := range ledger.Records() {
		for _, h := range w.Hosts {
			if h.Received(r.ID) {
				carry(r.ID, h.ID())
			}
		}
		seen := len(carriers[r.ID])
		if carriers[r.ID][r.Source] {
			seen--
		}
		if r.LiveCopies != holders[r.ID] || r.Seen != seen {
			t.Fatalf("t=%v msg %d: ledger live %d seen %d, buffers hold %d, carriers %d",
				w.Engine.Now(), r.ID, r.LiveCopies, r.Seen, holders[r.ID], seen)
		}
		if live, m := ledger.Live(r.ID, -1, false), ledger.Seen(r.ID, -1, false); live != r.LiveCopies || m != r.Seen {
			t.Fatalf("t=%v msg %d: queries give live %d seen %d, records %d and %d",
				w.Engine.Now(), r.ID, live, m, r.LiveCopies, r.Seen)
		}
	}
}
