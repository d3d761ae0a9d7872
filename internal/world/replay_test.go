package world

import (
	"math"
	"os"
	"path/filepath"
	"testing"

	"sdsrp/internal/trace"
)

// The export/replay loop: a mobility-driven run with a contact recorder,
// exported as a trace, replayed in contact-trace mode, must see the exact
// same contact structure and land on closely matching metrics (event
// ordering within one scan tick may differ, so metrics are compared with a
// tolerance rather than bit-exactly).
func TestContactExportReplayLoop(t *testing.T) {
	sc := smallScenario("SprayAndWait")
	rec := trace.NewContactRecorder()
	w, err := Build(sc, WithTracer(rec))
	if err != nil {
		t.Fatal(err)
	}
	orig := mustRun(t, w)
	contacts := rec.Contacts()
	if len(contacts) == 0 {
		t.Fatal("no contacts recorded")
	}

	// Export.
	path := filepath.Join(t.TempDir(), "contacts.txt")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := trace.WriteContacts(f, contacts); err != nil {
		t.Fatal(err)
	}
	f.Close()

	// Replay.
	rep := sc
	rep.ContactTraceFile = path
	rep.Nodes = 2 // raised to the trace population
	w2, err := Build(rep)
	if err != nil {
		t.Fatal(err)
	}
	replay := mustRun(t, w2)

	// Links still up at the horizon were not exported, so the replay sees
	// at most the original contact count, within a small margin.
	if replay.Contacts > orig.Contacts || replay.Contacts < orig.Contacts-len(w.Hosts) {
		t.Fatalf("contacts: replay %d vs original %d", replay.Contacts, orig.Contacts)
	}
	if math.Abs(replay.DeliveryRatio-orig.DeliveryRatio) > 0.1 {
		t.Fatalf("delivery drifted: replay %.3f vs original %.3f",
			replay.DeliveryRatio, orig.DeliveryRatio)
	}
	if replay.Created == 0 || replay.Delivered == 0 {
		t.Fatal("replay degenerate")
	}
}

// TestContactRecorderMatchesManager checks the recorder against the radio
// layer's own accounting: one finished contact per link that went down, in
// the order they ended, whose lengths sum in that order to the manager's
// mean bit for bit.
func TestContactRecorderMatchesManager(t *testing.T) {
	rec := trace.NewContactRecorder()
	w, err := Build(smallScenario("SprayAndWait"), WithTracer(rec))
	if err != nil {
		t.Fatal(err)
	}
	res := mustRun(t, w)
	contacts := rec.Contacts()
	if got := len(contacts) + w.Manager.ActiveLinks(); got != res.Contacts {
		t.Fatalf("%d finished + %d open contacts, manager counted %d",
			len(contacts), w.Manager.ActiveLinks(), res.Contacts)
	}
	var sum, prevEnd float64
	for _, c := range contacts {
		if c.A >= c.B || c.End <= c.Start || c.End < prevEnd {
			t.Fatalf("malformed or out-of-order contact %+v after end %v", c, prevEnd)
		}
		sum += c.End - c.Start
		prevEnd = c.End
	}
	if mean := sum / float64(len(contacts)); mean != res.MeanContactDuration {
		t.Fatalf("recorded mean duration %v, manager %v", mean, res.MeanContactDuration)
	}
}
