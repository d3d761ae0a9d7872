package world

import (
	"fmt"
	"testing"

	"sdsrp/internal/config"
	"sdsrp/internal/fault"
	"sdsrp/internal/obs"
)

// TestLedgerMatchesTracker checks the event log against the simulator's
// ground truth: for every message, the ledger folded from the run's events
// must end with routing.Tracker's live-copy count n_i and its m_i. The
// variants cover every way a copy enters or leaves a buffer without a
// policy or TTL event of its own: ACK purges, wiping reboots, black holes,
// radio loss, and the protocols whose forwards differ from binary spray.
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
				ledger := obs.NewLedger()
				w, err := Build(sc, WithTracer(ledger))
				if err != nil {
					t.Fatal(err)
				}
				res := mustRun(t, w)
				recs := ledger.Records()
				if len(recs) != res.Created || res.Created == 0 {
					t.Fatalf("ledger has %d records, run created %d", len(recs), res.Created)
				}
				seen, lost := map[string]bool{}, 0
				for _, r := range recs {
					if live := w.Tracker.Live(r.ID); r.LiveCopies != live {
						t.Errorf("msg %d: ledger %d live copies, tracker %d", r.ID, r.LiveCopies, live)
					}
					if m := w.Tracker.Seen(r.ID); r.Seen != m {
						t.Errorf("msg %d: ledger seen %d, tracker %d", r.ID, r.Seen, m)
					}
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
