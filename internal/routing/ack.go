package routing

import "sdsrp/internal/msg"

// AckTable implements the immunization ("anti-packet") mechanism the paper
// explicitly excludes from its model (Section III-A) and that we provide as
// an extension: when a message reaches its destination, a compact ACK
// record is created; ACKs gossip on every contact, and nodes purge and
// refuse copies of acknowledged messages. The extra-ack experiment
// quantifies how much of the buffer-management problem immunization would
// solve on its own.
//
// An ACK matters only while copies of its message may exist, so the table
// is a floor, below which every id has expired and been swept from every
// buffer (see Forget), and a dense window of flags for the ids above it: a
// merge costs the window, not the run's delivery history.
type AckTable struct {
	floor msg.ID // every id below it is dead; acked[0] is id floor
	acked []bool // id − floor -> delivered
}

// NewAckTable returns an empty table.
func NewAckTable() *AckTable { return &AckTable{} }

// Add records that id has been delivered.
func (t *AckTable) Add(id msg.ID) {
	if id < t.floor {
		return
	}
	i := int(id - t.floor)
	t.fit(i + 1)
	t.acked[i] = true
}

// fit lengthens the window to at least n ids.
func (t *AckTable) fit(n int) {
	if n > len(t.acked) {
		t.acked = append(t.acked, make([]bool, n-len(t.acked))...)
	}
}

// Has reports whether id is known to be delivered.
func (t *AckTable) Has(id msg.ID) bool {
	i := int(id) - int(t.floor)
	return i >= 0 && i < len(t.acked) && t.acked[i]
}

// MergeFrom absorbs the peer's floor, when higher, and its ACKs above the
// resulting floor.
func (t *AckTable) MergeFrom(peer *AckTable) {
	t.advance(peer.floor)
	src := peer.acked[min(int(t.floor-peer.floor), len(peer.acked)):]
	t.fit(len(src))
	for i, ok := range src {
		if ok {
			t.acked[i] = true
		}
	}
}

// Forget is called by the TTL sweep when message id expires here. As with
// core.DropTable.Forget, that proves every id up to and including id dead,
// so the table drops them all: an ACK is moot once its message is globally
// dead.
func (t *AckTable) Forget(id msg.ID) { t.advance(id + 1) }

// advance raises the floor to f, slicing off the window's dead prefix
// (append sheds it from the backing array when the window next regrows).
func (t *AckTable) advance(f msg.ID) {
	if f > t.floor {
		t.acked = t.acked[min(int(f-t.floor), len(t.acked)):]
		t.floor = f
	}
}
