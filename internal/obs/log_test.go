package obs

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// allTypeEvents is one fully-populated event per type, exercising every
// AppendJSON field subset.
func allTypeEvents() []Event {
	return []Event{
		{T: 1.5, Type: MessageCreated, Msg: 7, Node: 2, Peer: 9, Size: 25000, Copies: 32},
		{T: 10, Type: MessageForwarded, Msg: 7, Node: 2, Peer: 3, Copies: 16, Kind: "spray"},
		{T: 20.25, Type: MessageDelivered, Msg: 7, Node: 3, Peer: 9, Hops: 2, Latency: 18.75},
		{T: 30, Type: MessageDropped, Msg: 7, Node: 0, Priority: 0.125},
		{T: 40, Type: MessageExpired, Msg: 7, Node: 5},
		{T: 50, Type: MessageRefused, Msg: 7, Node: 1, Peer: 2},
		{T: 60, Type: ContactUp, Node: 0, Peer: 4},
		{T: 70, Type: ContactDown, Node: 0, Peer: 4},
		{T: 80, Type: TransferStart, Msg: 7, Node: 1, Peer: 2, Size: 25000, Kind: "delivery"},
		{T: 90, Type: TransferAbort, Msg: 7, Node: 1, Peer: 2},
		{T: 100, Type: TransferLost, Msg: 7, Node: 1, Peer: 2},
		{T: 110, Type: NodeDown, Node: 3},
		{T: 120, Type: NodeUp, Node: 3},
		{T: 130, Type: LinkFlap, Node: 0, Peer: 4},
		{T: 135, Type: MessagePurged, Msg: 7, Node: 5, Kind: "ack"},
		{T: 140, Type: Snapshot, LiveMsgs: 3, LiveCopies: 7, Contacts: 2, Queue: 15,
			Fill: 0.375, Used: []int64{0, 25000, 50000}},
	}
}

func TestParseEventRoundTrip(t *testing.T) {
	for _, want := range allTypeEvents() {
		line := want.AppendJSON(nil)
		got, err := ParseEvent(line)
		if err != nil {
			t.Fatalf("%v: %v", want.Type, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%v round-trip:\n got %+v\nwant %+v", want.Type, got, want)
		}
	}
}

func TestParseEventRejectsGarbage(t *testing.T) {
	if _, err := ParseEvent([]byte("not json")); err == nil {
		t.Error("garbage line parsed")
	}
	if _, err := ParseEvent([]byte(`{"t":1,"type":"no_such_type"}`)); err == nil {
		t.Error("unknown type parsed")
	}
}

func TestTypeByName(t *testing.T) {
	for ty := Type(0); int(ty) < numTypes; ty++ {
		got, ok := TypeByName(ty.String())
		if !ok || got != ty {
			t.Errorf("TypeByName(%q) = %v, %v", ty.String(), got, ok)
		}
	}
	if _, ok := TypeByName("unknown"); ok {
		t.Error("the unknown sentinel must not resolve")
	}
}

func TestLogReaderLineNumbersErrors(t *testing.T) {
	in := strings.NewReader(`{"t":1,"type":"contact_up","node":0,"peer":1}` + "\n" +
		`{"t":2,"type":"contact_down"` + "\n")
	lr := NewLogReader(in)
	if _, err := lr.Next(); err != nil {
		t.Fatalf("line 1: %v", err)
	}
	_, err := lr.Next()
	if err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Fatalf("want line-2 error, got %v", err)
	}
}

func TestOpenCreateLogGzip(t *testing.T) {
	dir := t.TempDir()
	evs := allTypeEvents()
	for _, name := range []string{"plain.jsonl", "packed.jsonl.gz"} {
		path := filepath.Join(dir, name)
		w, err := CreateLog(path)
		if err != nil {
			t.Fatal(err)
		}
		j := NewJSONL(w)
		for _, ev := range evs {
			j.Emit(ev)
		}
		if err := j.Flush(); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}

		r, err := OpenLog(path)
		if err != nil {
			t.Fatal(err)
		}
		lr := NewLogReader(r)
		var got []Event
		for {
			ev, err := lr.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			got = append(got, ev)
		}
		if err := r.Close(); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, evs) {
			t.Fatalf("%s: round-trip mismatch", name)
		}
	}

	// The .gz file must actually be gzip (magic bytes), not plain text.
	raw, err := os.ReadFile(filepath.Join(dir, "packed.jsonl.gz"))
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) < 2 || !bytes.Equal(raw[:2], []byte{0x1f, 0x8b}) {
		t.Fatal("packed.jsonl.gz is not gzip-compressed")
	}
}
