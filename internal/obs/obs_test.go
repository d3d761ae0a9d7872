package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func TestAppendJSONPerType(t *testing.T) {
	cases := []struct {
		ev   Event
		want string
	}{
		{Event{T: 1.5, Type: MessageCreated, Msg: 7, Node: 2, Peer: 9, Size: 25000, Copies: 32},
			`{"t":1.5,"type":"created","msg":7,"node":2,"peer":9,"size":25000,"copies":32}`},
		{Event{T: 10, Type: MessageForwarded, Msg: 7, Node: 2, Peer: 3, Copies: 16, Kind: "spray"},
			`{"t":10,"type":"forwarded","msg":7,"node":2,"peer":3,"copies":16,"kind":"spray"}`},
		{Event{T: 20.25, Type: MessageDelivered, Msg: 7, Node: 3, Peer: 9, Hops: 2, Latency: 18.75},
			`{"t":20.25,"type":"delivered","msg":7,"node":3,"peer":9,"hops":2,"latency":18.75}`},
		{Event{T: 30, Type: MessageDropped, Msg: 7, Node: 0, Priority: 0.125},
			`{"t":30,"type":"dropped","msg":7,"node":0,"priority":0.125}`},
		{Event{T: 40, Type: MessageExpired, Msg: 7, Node: 5},
			`{"t":40,"type":"expired","msg":7,"node":5}`},
		{Event{T: 50, Type: MessageRefused, Msg: 7, Node: 1, Peer: 2},
			`{"t":50,"type":"refused","msg":7,"node":1,"peer":2}`},
		{Event{T: 60, Type: ContactUp, Node: 0, Peer: 4},
			`{"t":60,"type":"contact_up","node":0,"peer":4}`},
		{Event{T: 70, Type: ContactDown, Node: 0, Peer: 4},
			`{"t":70,"type":"contact_down","node":0,"peer":4}`},
		{Event{T: 80, Type: TransferStart, Msg: 7, Node: 1, Peer: 2, Size: 25000, Kind: "delivery"},
			`{"t":80,"type":"transfer_start","msg":7,"node":1,"peer":2,"size":25000,"kind":"delivery"}`},
		{Event{T: 90, Type: TransferAbort, Msg: 7, Node: 1, Peer: 2},
			`{"t":90,"type":"transfer_abort","msg":7,"node":1,"peer":2}`},
		{Event{T: 100, Type: TransferLost, Msg: 7, Node: 1, Peer: 2},
			`{"t":100,"type":"transfer_lost","msg":7,"node":1,"peer":2}`},
		{Event{T: 110, Type: NodeDown, Node: 3},
			`{"t":110,"type":"node_down","node":3}`},
		{Event{T: 120, Type: NodeUp, Node: 3},
			`{"t":120,"type":"node_up","node":3}`},
		{Event{T: 130, Type: LinkFlap, Node: 0, Peer: 4},
			`{"t":130,"type":"link_flap","node":0,"peer":4}`},
		{Event{T: 135, Type: MessagePurged, Msg: 7, Node: 5, Kind: "wipe"},
			`{"t":135,"type":"purged","msg":7,"node":5,"kind":"wipe"}`},
		{Event{T: 140, Type: Snapshot, LiveMsgs: 3, LiveCopies: 7, Contacts: 2, Queue: 15, Fill: 0.375, Used: []int64{0, 25000, 50000}},
			`{"t":140,"type":"snapshot","live_msgs":3,"live_copies":7,"contacts":2,"queue":15,"fill":0.375,"used":[0,25000,50000]}`},
	}
	for _, c := range cases {
		got := string(c.ev.AppendJSON(nil))
		if got != c.want {
			t.Errorf("%v:\n got %s\nwant %s", c.ev.Type, got, c.want)
		}
		// Every line must also be valid JSON.
		var m map[string]any
		if err := json.Unmarshal([]byte(got), &m); err != nil {
			t.Errorf("%v: invalid JSON %q: %v", c.ev.Type, got, err)
		}
	}
}

func TestJSONLWritesLines(t *testing.T) {
	var buf bytes.Buffer
	j := NewJSONL(&buf)
	j.Emit(Event{T: 1, Type: ContactUp, Node: 0, Peer: 1})
	j.Emit(Event{T: 2, Type: ContactDown, Node: 0, Peer: 1})
	if err := j.Flush(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want 2", len(lines))
	}
	for _, l := range lines {
		var m map[string]any
		if err := json.Unmarshal([]byte(l), &m); err != nil {
			t.Fatalf("bad line %q: %v", l, err)
		}
	}
}

func TestRingWraps(t *testing.T) {
	r := NewRing(3)
	for i := 0; i < 5; i++ {
		r.Emit(Event{T: float64(i), Type: ContactUp})
	}
	if r.Len() != 3 {
		t.Fatalf("Len = %d, want 3", r.Len())
	}
	if r.Dropped() != 2 {
		t.Fatalf("Dropped = %d, want 2", r.Dropped())
	}
	evs := r.Events()
	for i, want := range []float64{2, 3, 4} {
		if evs[i].T != want {
			t.Errorf("event %d at t=%v, want %v", i, evs[i].T, want)
		}
	}
}

func TestMultiFiltersNils(t *testing.T) {
	if tr := Multi(nil, nil); tr != nil {
		t.Fatalf("Multi(nil, nil) = %v, want nil", tr)
	}
	r := NewRing(4)
	if tr := Multi(nil, r); tr != Tracer(r) {
		t.Fatalf("Multi with one live sink should return it directly")
	}
	r2 := NewRing(4)
	tr := Multi(r, r2)
	tr.Emit(Event{T: 1, Type: ContactUp})
	if r.Len() != 1 || r2.Len() != 1 {
		t.Fatalf("fan-out failed: %d, %d", r.Len(), r2.Len())
	}
}

// TestLedgerCountsByType checks the ledger counts every event by type, the
// ones it keeps no record for (contacts, snapshots, node events) included.
func TestLedgerCountsByType(t *testing.T) {
	l := NewLedger()
	evs := []Event{
		{T: 0, Type: MessageCreated, Msg: 1, Node: 0, Peer: 9, Copies: 8},
		{T: 1, Type: ContactUp, Node: 0, Peer: 3},
		{T: 2, Type: TransferStart, Msg: 1, Node: 0, Peer: 3, Size: 1 << 10},
		{T: 3, Type: MessageDropped, Msg: 1, Node: 0, Priority: 2},
		{T: 4, Type: Snapshot, Used: []int64{0, 0}},
		{T: 5, Type: NodeDown, Node: 3},
		{T: 6, Type: Snapshot, Used: []int64{0, 0}},
	}
	for _, ev := range evs {
		l.Emit(ev)
	}
	for _, c := range []struct {
		typ  Type
		want uint64
	}{{MessageCreated, 1}, {ContactUp, 1}, {TransferStart, 1}, {MessageDropped, 1},
		{Snapshot, 2}, {NodeDown, 1}, {MessageDelivered, 0}} {
		if got := l.Count(c.typ); got != c.want {
			t.Errorf("Count(%s) = %d, want %d", c.typ, got, c.want)
		}
	}
	if got := l.Total(); got != uint64(len(evs)) {
		t.Errorf("Total = %d, want %d", got, len(evs))
	}
	if got := l.Count(Type(numTypes)); got != 0 {
		t.Errorf("Count(out of range) = %d, want 0", got)
	}
}

func TestRunStatsString(t *testing.T) {
	r := RunStats{SimSeconds: 18000, Events: 100000, PeakQueue: 42, WallSeconds: 2}
	if r.EventsPerSec() != 50000 {
		t.Errorf("EventsPerSec = %v", r.EventsPerSec())
	}
	s := r.String()
	for _, want := range []string{"events=100000", "events/sec=50000", "peak-queue=42", "sim=18000s"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q missing %q", s, want)
		}
	}
	if (RunStats{}).EventsPerSec() != 0 {
		t.Error("zero wall should give 0 events/sec")
	}
	// The deleted kinetic planner's counters stay in the struct for old
	// journals, but the line names none of them, even when a journal sets
	// them.
	r.PairsChecked, r.PairsSkipped, r.Wakeups = 528148, 7, 3
	r.ScanFallback = "kinetic:load-monitor->naive"
	s = r.String()
	if !strings.HasSuffix(s, " pairs-checked=528148") {
		t.Errorf("String() = %q does not end in the pairs-checked counter", s)
	}
	for _, gone := range []string{"pairs-skipped", "wakeups", "scan-fallback", "kinetic"} {
		if strings.Contains(s, gone) {
			t.Errorf("String() = %q names %q", s, gone)
		}
	}
}

// TestRunStatsStringReplayed checks a run that replayed a recorded contact
// schedule says so where the scan counters would be, so its zero counters
// never read as a free scan.
func TestRunStatsStringReplayed(t *testing.T) {
	r := RunStats{SimSeconds: 900, Events: 5000, WallSeconds: 1, PairsChecked: 7, Replayed: true}
	s := r.String()
	if !strings.Contains(s, " scan=replayed") {
		t.Errorf("String() = %q missing the replay marker", s)
	}
	if strings.Contains(s, "pairs-checked") {
		t.Errorf("String() = %q prints scan counters for a replayed run", s)
	}
	r.Replayed = false
	if s := r.String(); strings.Contains(s, "replayed") || !strings.Contains(s, "pairs-checked=7") {
		t.Errorf("String() = %q: a scanning run must print its counters and no marker", s)
	}
}
