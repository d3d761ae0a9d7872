package obs

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"sdsrp/internal/msg"
)

// feedLedger folds a hand-written event sequence.
func feedLedger(evs []Event) *Ledger {
	l := NewLedger()
	for _, ev := range evs {
		l.Emit(ev)
	}
	return l
}

func TestLedgerDeliveredPath(t *testing.T) {
	// 0 creates for 9, sprays to 3, 3 sprays to 5, 5 delivers to 9. The
	// delivery hop emits only a delivered event — no forwarded — matching
	// CommitTransfer's KindDelivery path.
	l := feedLedger([]Event{
		{T: 0, Type: MessageCreated, Msg: 1, Node: 0, Peer: 9, Size: 25000, Copies: 8},
		{T: 10, Type: MessageForwarded, Msg: 1, Node: 0, Peer: 3, Copies: 4, Kind: "spray"},
		{T: 20, Type: MessageForwarded, Msg: 1, Node: 3, Peer: 5, Copies: 2, Kind: "spray"},
		{T: 30, Type: MessageDelivered, Msg: 1, Node: 5, Peer: 9, Hops: 3, Latency: 30},
	})
	r := l.Record(1)
	if r == nil {
		t.Fatal("message 1 missing")
	}
	if r.Fate != FateDelivered {
		t.Fatalf("fate = %s, want delivered", r.Fate)
	}
	if want := []int{0, 3, 5, 9}; !reflect.DeepEqual(r.Path, want) {
		t.Errorf("path = %v, want %v", r.Path, want)
	}
	if r.Hops != 3 || r.Latency != 30 || r.DeliveredAt != 30 {
		t.Errorf("hops/latency/at = %d/%v/%v", r.Hops, r.Latency, r.DeliveredAt)
	}
	if len(r.Path)-1 != r.Hops {
		t.Errorf("path length %d inconsistent with hops %d", len(r.Path), r.Hops)
	}
	// Delivery removes the relay's copy; 0 and 3 still hold theirs.
	if r.LiveCopies != 2 {
		t.Errorf("live copies = %d, want 2 (source + node 3)", r.LiveCopies)
	}
}

func TestLedgerPathIgnoresPostDeliverySprays(t *testing.T) {
	// A spray landing on the delivering relay AFTER delivery must not
	// corrupt the reconstructed lineage.
	l := feedLedger([]Event{
		{T: 0, Type: MessageCreated, Msg: 1, Node: 0, Peer: 9, Copies: 8},
		{T: 10, Type: MessageForwarded, Msg: 1, Node: 0, Peer: 5, Copies: 4, Kind: "spray"},
		{T: 20, Type: MessageDelivered, Msg: 1, Node: 5, Peer: 9, Hops: 2, Latency: 20},
		{T: 25, Type: MessageForwarded, Msg: 1, Node: 0, Peer: 5, Copies: 2, Kind: "spray"},
	})
	r := l.Record(1)
	if want := []int{0, 5, 9}; !reflect.DeepEqual(r.Path, want) {
		t.Errorf("path = %v, want %v", r.Path, want)
	}
}

func TestLedgerHandoffTransfersCustody(t *testing.T) {
	// Direct/last-token handoff: the sender deletes its copy.
	l := feedLedger([]Event{
		{T: 0, Type: MessageCreated, Msg: 2, Node: 1, Peer: 9, Copies: 1},
		{T: 10, Type: MessageForwarded, Msg: 2, Node: 1, Peer: 4, Copies: 1, Kind: "handoff"},
	})
	r := l.Record(2)
	if r.Fate != FateStranded {
		t.Fatalf("fate = %s, want stranded", r.Fate)
	}
	if r.LiveCopies != 1 {
		t.Errorf("live copies = %d, want 1 (custody moved to node 4)", r.LiveCopies)
	}
}

func TestLedgerTransferLostRevokesReceiverCopy(t *testing.T) {
	// Black-hole semantics: the stream emits forwarded THEN transfer_lost;
	// the receiver never actually stored the copy.
	l := feedLedger([]Event{
		{T: 0, Type: MessageCreated, Msg: 3, Node: 0, Peer: 9, Copies: 4},
		{T: 10, Type: MessageForwarded, Msg: 3, Node: 0, Peer: 6, Copies: 2, Kind: "spray"},
		{T: 10, Type: TransferLost, Msg: 3, Node: 0, Peer: 6},
	})
	r := l.Record(3)
	if r.Lost != 1 {
		t.Errorf("lost = %d, want 1", r.Lost)
	}
	if r.LiveCopies != 1 {
		t.Errorf("live copies = %d, want 1 (only the source)", r.LiveCopies)
	}
}

// TestLedgerSeenAndPurges pins the per-message record a ledger reports in
// place of the simulator's own fate table: seen counts every node that
// stored a copy or consumed it as destination, never the source, a drop on
// arrival or a black hole; purges remove live copies; and a message whose
// last copy a reboot wiped ends wiped. The JSONL record carries both.
func TestLedgerSeenAndPurges(t *testing.T) {
	l := feedLedger([]Event{
		{T: 0, Type: MessageCreated, Msg: 1, Node: 0, Peer: 9, Copies: 8},
		{T: 1, Type: MessageForwarded, Msg: 1, Node: 0, Peer: 3, Copies: 4, Kind: "spray"},
		{T: 2, Type: MessageForwarded, Msg: 1, Node: 0, Peer: 4, Copies: 2, Kind: "spray"},
		{T: 2, Type: MessageDropped, Msg: 1, Node: 4}, // drop on arrival
		{T: 3, Type: MessageForwarded, Msg: 1, Node: 3, Peer: 6, Copies: 2, Kind: "spray"},
		{T: 3, Type: TransferLost, Msg: 1, Node: 3, Peer: 6}, // black hole
		{T: 4, Type: MessageForwarded, Msg: 1, Node: 3, Peer: 5, Copies: 1, Kind: "spray"},
		{T: 4, Type: MessageDropped, Msg: 2, Node: 5}, // a victim, not the newcomer
		{T: 5, Type: MessageDelivered, Msg: 1, Node: 5, Peer: 9, Hops: 3, Latency: 5},
		{T: 6, Type: MessagePurged, Msg: 1, Node: 0, Kind: "ack"},
		{T: 7, Type: MessageCreated, Msg: 3, Node: 2, Peer: 8, Copies: 1},
		{T: 8, Type: MessageForwarded, Msg: 3, Node: 2, Peer: 7, Copies: 1, Kind: "handoff"},
		{T: 9, Type: MessagePurged, Msg: 3, Node: 7, Kind: "wipe"},
	})
	one := l.Record(1)
	if one.Seen != 3 { // 3, 5 and the destination 9
		t.Errorf("msg 1: seen = %d, want 3", one.Seen)
	}
	if one.LiveCopies != 1 { // node 3; 0 was purged, 5 delivered
		t.Errorf("msg 1: live copies = %d, want 1", one.LiveCopies)
	}
	three := l.Record(3)
	if three.Fate != FateWiped || three.LiveCopies != 0 || three.Seen != 1 {
		t.Errorf("msg 3: fate/live/seen = %s/%d/%d, want wiped/0/1",
			three.Fate, three.LiveCopies, three.Seen)
	}
	var buf bytes.Buffer
	if err := WriteRecords(&buf, l.Records()); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if !strings.Contains(lines[0], `"live_copies":1,"seen":3,`) ||
		!strings.Contains(lines[0], `{"t":6,"node":0,"cause":"ack","priority":0}`) {
		t.Errorf("msg 1 record = %s", lines[0])
	}
	if !strings.Contains(lines[2], `"fate":"wiped"`) || !strings.Contains(lines[2], `"seen":1,`) {
		t.Errorf("msg 3 record = %s", lines[2])
	}
}

func TestLedgerFates(t *testing.T) {
	l := feedLedger([]Event{
		// msg 1: dropped everywhere (policy last).
		{T: 0, Type: MessageCreated, Msg: 1, Node: 0, Peer: 9, Copies: 2},
		{T: 5, Type: MessageForwarded, Msg: 1, Node: 0, Peer: 2, Copies: 1, Kind: "spray"},
		{T: 8, Type: MessageDropped, Msg: 1, Node: 2, Priority: 0.25},
		{T: 9, Type: MessageDropped, Msg: 1, Node: 0, Priority: 0.5},
		// msg 2: TTL sweep last → expired.
		{T: 1, Type: MessageCreated, Msg: 2, Node: 1, Peer: 8, Copies: 1},
		{T: 50, Type: MessageExpired, Msg: 2, Node: 1},
		// msg 3: still holding a copy → stranded.
		{T: 2, Type: MessageCreated, Msg: 3, Node: 2, Peer: 7, Copies: 4},
		// msg 4: refused then aborted, still live.
		{T: 3, Type: MessageCreated, Msg: 4, Node: 3, Peer: 6, Copies: 4},
		{T: 6, Type: MessageRefused, Msg: 4, Node: 3, Peer: 5},
		{T: 7, Type: TransferAbort, Msg: 4, Node: 3, Peer: 5},
	})
	wantFates := map[msg.ID]string{1: FateDropped, 2: FateExpired, 3: FateStranded, 4: FateStranded}
	for id, want := range wantFates {
		r := l.Record(id)
		if r == nil || r.Fate != want {
			t.Errorf("msg %d fate = %v, want %s", id, r, want)
		}
	}
	r4 := l.Record(4)
	if r4.Refused != 1 || r4.Aborted != 1 {
		t.Errorf("msg 4 refused/aborted = %d/%d, want 1/1", r4.Refused, r4.Aborted)
	}
	r1 := l.Record(1)
	if len(r1.Removals) != 2 || r1.Removals[0].Priority != 0.25 {
		t.Errorf("msg 1 removals = %+v", r1.Removals)
	}
	if l.Len() != 4 {
		t.Errorf("Len = %d, want 4", l.Len())
	}
	if l.Horizon() != 50 {
		t.Errorf("Horizon = %v, want 50", l.Horizon())
	}
}

func TestLedgerDropOnArrival(t *testing.T) {
	// Receiver's policy rejects the just-forwarded copy: forwarded then
	// dropped at the receiver. The sender keeps its copy.
	l := feedLedger([]Event{
		{T: 0, Type: MessageCreated, Msg: 1, Node: 0, Peer: 9, Copies: 4},
		{T: 10, Type: MessageForwarded, Msg: 1, Node: 0, Peer: 3, Copies: 2, Kind: "spray"},
		{T: 10, Type: MessageDropped, Msg: 1, Node: 3, Priority: 0.1},
	})
	r := l.Record(1)
	if r.Fate != FateStranded || r.LiveCopies != 1 {
		t.Errorf("fate/live = %s/%d, want stranded/1", r.Fate, r.LiveCopies)
	}
}

// TestLedgerQueriesLeaveAskerOutOfPendingArrival pins the mid-run truth
// queries: a node asking about a copy its buffer does not hold yet leaves
// itself out of n_i, and out of m_i while the pending arrival to it is its
// first; the source is left out of m_i once either way.
func TestLedgerQueriesLeaveAskerOutOfPendingArrival(t *testing.T) {
	l := NewLedger()
	check := func(step string, node int, holds bool, live, seen int) {
		t.Helper()
		if gl, gs := l.Live(1, node, holds), l.Seen(1, node, holds); gl != live || gs != seen {
			t.Errorf("%s: node %d (holds %v) reads live %d seen %d, want %d and %d", step, node, holds, gl, gs, live, seen)
		}
	}
	check("unknown message", 0, false, 0, 0)
	l.Emit(Event{T: 0, Type: MessageCreated, Msg: 1, Node: 0, Peer: 9, Copies: 8})
	check("source scores its newcomer", 0, false, 0, 0)
	check("source stored it", 0, true, 1, 0)
	l.Emit(Event{T: 10, Type: MessageForwarded, Msg: 1, Node: 0, Peer: 3, Copies: 4, Kind: "spray"})
	check("first arrival at 3", 3, false, 1, 0)
	check("3 stored it", 3, true, 2, 1)
	check("bystander", 5, false, 2, 1)
	l.Emit(Event{T: 20, Type: MessageDropped, Msg: 1, Node: 0})
	l.Emit(Event{T: 30, Type: MessageForwarded, Msg: 1, Node: 3, Peer: 0, Copies: 2, Kind: "spray"})
	check("source's first arrival", 0, false, 1, 1)
	l.Emit(Event{T: 40, Type: MessageDropped, Msg: 1, Node: 3})
	l.Emit(Event{T: 50, Type: MessageForwarded, Msg: 1, Node: 0, Peer: 3, Copies: 1, Kind: "spray"})
	check("3 arrives again", 3, false, 1, 1)
	l.Emit(Event{T: 50, Type: MessageDropped, Msg: 1, Node: 3})
	check("3 dropped it on arrival", 3, false, 1, 1)
}

func TestLedgerWriteJSONLStable(t *testing.T) {
	evs := []Event{
		{T: 0, Type: MessageCreated, Msg: 1, Node: 0, Peer: 9, Size: 100, Copies: 8},
		{T: 10, Type: MessageForwarded, Msg: 1, Node: 0, Peer: 3, Copies: 4, Kind: "spray"},
		{T: 30, Type: MessageDelivered, Msg: 1, Node: 3, Peer: 9, Hops: 2, Latency: 30},
		{T: 1, Type: MessageCreated, Msg: 2, Node: 5, Peer: 4, Size: 100, Copies: 8},
	}
	var a, b bytes.Buffer
	if err := WriteRecords(&a, feedLedger(evs).Records()); err != nil {
		t.Fatal(err)
	}
	if err := WriteRecords(&b, feedLedger(evs).Records()); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatal("two folds of the same stream encode differently")
	}
	lines := strings.Split(strings.TrimSuffix(a.String(), "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d records, want 2", len(lines))
	}
	if !strings.Contains(lines[0], `"fate":"delivered"`) ||
		!strings.Contains(lines[0], `"path":[0,3,9]`) {
		t.Errorf("record 1 = %s", lines[0])
	}
	if !strings.Contains(lines[1], `"fate":"stranded"`) {
		t.Errorf("record 2 = %s", lines[1])
	}
}

func TestFoldLogRoundTrip(t *testing.T) {
	evs := []Event{
		{T: 0, Type: MessageCreated, Msg: 1, Node: 0, Peer: 9, Size: 100, Copies: 8},
		{T: 5, Type: ContactUp, Node: 0, Peer: 3},
		{T: 6, Type: TransferStart, Msg: 1, Node: 0, Peer: 3, Size: 100, Kind: "spray"},
		{T: 10, Type: MessageForwarded, Msg: 1, Node: 0, Peer: 3, Copies: 4, Kind: "spray"},
		{T: 12, Type: ContactDown, Node: 0, Peer: 3},
		{T: 30, Type: MessageDelivered, Msg: 1, Node: 3, Peer: 9, Hops: 2, Latency: 30},
		{T: 40, Type: Snapshot, LiveMsgs: 1, LiveCopies: 1, Contacts: 0, Queue: 3, Used: []int64{100, 0, 0}},
	}
	var buf bytes.Buffer
	j := NewJSONL(&buf)
	for _, ev := range evs {
		j.Emit(ev)
	}
	if err := j.Flush(); err != nil {
		t.Fatal(err)
	}
	l, err := FoldLog(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if l.Total() != uint64(len(evs)) {
		t.Errorf("Total = %d, want %d", l.Total(), len(evs))
	}
	if l.Count(Snapshot) != 1 || l.Count(ContactUp) != 1 {
		t.Errorf("counts: snapshot=%d contact_up=%d", l.Count(Snapshot), l.Count(ContactUp))
	}
	r := l.Record(1)
	if r == nil || r.Fate != FateDelivered || r.Latency != 30 {
		t.Errorf("record = %+v", r)
	}
	if len(l.Deliveries()) != 1 {
		t.Errorf("deliveries = %d, want 1", len(l.Deliveries()))
	}
}

func TestFoldLogBadLine(t *testing.T) {
	in := strings.NewReader(`{"t":1,"type":"contact_up","node":0,"peer":1}` + "\n" +
		"not json\n")
	_, err := FoldLog(in)
	if err == nil {
		t.Fatal("want parse error on malformed line")
	}
	if !strings.Contains(err.Error(), "line 2") {
		t.Errorf("error %q should name the offending line", err)
	}
}
