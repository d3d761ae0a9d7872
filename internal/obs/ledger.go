package obs

import (
	"encoding/json"
	"fmt"
	"io"

	"sdsrp/internal/msg"
)

// Forward is one committed replication in a message's provenance: the
// sender, the receiver, the spray tokens the receiver obtained, and the
// transfer kind ("spray", "spray-source", "relay", "handoff").
type Forward struct {
	T      float64 `json:"t"`
	From   int     `json:"from"`
	To     int     `json:"to"`
	Copies int     `json:"copies"`
	Kind   string  `json:"kind"`
}

// Removal is one copy leaving a buffer: a policy eviction (cause "policy",
// with the policy's drop score at eviction time), a TTL sweep (cause
// "expired"), an ACK-immunization purge (cause "ack") or a churn reboot's
// buffer wipe (cause "wipe").
type Removal struct {
	T        float64 `json:"t"`
	Node     int     `json:"node"`
	Cause    string  `json:"cause"`
	Priority float64 `json:"priority"`
}

// Fate classifies a message's terminal state at the fold horizon.
const (
	// FateDelivered: the destination consumed the message.
	FateDelivered = "delivered"
	// FateExpired: every copy is gone and the last removal was a TTL sweep.
	FateExpired = "expired"
	// FateDropped: every copy is gone and the last removal was a policy
	// eviction (the paper's buffer-management death).
	FateDropped = "dropped"
	// FateStranded: undelivered with copies still buffered at the horizon.
	FateStranded = "stranded"
	// FateWiped: every copy is gone and the last removal was a churn
	// reboot's buffer wipe.
	FateWiped = "wiped"
)

// MessageRecord is the folded lifecycle of one message: its identity, every
// custody transition in stream order, and the reconstructed terminal state.
// Field order is the stable JSONL schema — encoding/json emits struct
// fields in declaration order, so same-seed ledgers are byte-identical.
type MessageRecord struct {
	ID            msg.ID    `json:"id"`
	Source        int       `json:"source"`
	Dest          int       `json:"dest"`
	Created       float64   `json:"created"`
	Size          int64     `json:"size"`
	InitialCopies int       `json:"copies"`
	Fate          string    `json:"fate"`
	DeliveredAt   float64   `json:"delivered_at,omitempty"`
	Latency       float64   `json:"latency,omitempty"`
	Hops          int       `json:"hops,omitempty"`
	Path          []int     `json:"path,omitempty"`
	LiveCopies    int       `json:"live_copies,omitempty"`
	Seen          int       `json:"seen"` // true m_i (Eq. 15): non-source nodes that stored a copy or, as destination, consumed one
	Refused       int       `json:"refused,omitempty"`
	Aborted       int       `json:"aborted,omitempty"`
	Lost          int       `json:"lost,omitempty"`
	Forwards      []Forward `json:"forwards,omitempty"`
	Removals      []Removal `json:"removals,omitempty"`

	delivered bool
	// lastRelay is the node whose copy served the delivery; deliverIdx is
	// len(Forwards) at delivery time, so path reconstruction ignores sprays
	// that happened after the destination was already served.
	lastRelay  int
	deliverIdx int
	// holders tracks which nodes currently buffer a copy, per the event
	// stream; carriers every node that ever stored one, plus the
	// destination once served. Internal: callers read LiveCopies and Seen
	// after finalize, or Ledger.Live and Ledger.Seen mid-run.
	holders, carriers map[int]bool
}

// Ledger folds a run's event stream into per-message provenance records and
// counts every event by type, snapshots and contact events included. It is
// the one offline fold of a log: dtntrace reads its counts, records and
// deliveries. It implements Tracer, so it can ride a run directly (via
// Multi) or replay a JSONL log through LogReader.
//
// Every way a copy enters or leaves a buffer has an event (ACK purges and
// churn wipes emit purged), so a ledger folded from a whole log ends with
// each message's LiveCopies and Seen equal to the hosts' buffers and
// receipts. A log cut short yields records that start at its first event.
//
// It is also the run's ground truth: world.Build attaches one to a run
// whose policy reads truth (OracleUtility), and the hosts' TrueLive and
// TrueSeen read it mid-run through Live and Seen.
type Ledger struct {
	counts [numTypes]uint64
	recs   map[msg.ID]*MessageRecord
	order  []*MessageRecord
	// deliveries keeps delivered records in delivery order: latency
	// aggregation must accumulate in the same order as the collector's
	// running sum for bit-identical means.
	deliveries []*MessageRecord
	horizon    float64
	// arrival is the receiver of the last event if it was a forward: the
	// copy counts as stored unless the next event is that receiver's drop
	// of it (drop on arrival) or its transfer_lost (a black hole).
	arrival struct {
		r     *MessageRecord
		peer  int
		fresh bool // the forward made peer a carrier
	}
}

// NewLedger returns an empty ledger.
func NewLedger() *Ledger {
	return &Ledger{recs: make(map[msg.ID]*MessageRecord)}
}

// rec returns the record for id, creating a stub for messages whose created
// event predates the fold (truncated logs).
func (l *Ledger) rec(id msg.ID) *MessageRecord {
	r, ok := l.recs[id]
	if !ok {
		r = &MessageRecord{ID: id, Source: -1, Dest: -1,
			holders: make(map[int]bool), carriers: make(map[int]bool)}
		l.recs[id] = r
		l.order = append(l.order, r)
	}
	return r
}

// Emit implements Tracer, folding one event into the ledger.
func (l *Ledger) Emit(ev Event) {
	if int(ev.Type) < numTypes {
		l.counts[ev.Type]++
	}
	if ev.T > l.horizon {
		l.horizon = ev.T
	}
	a := l.arrival
	l.arrival.r = nil
	unstored := a.r != nil && ev.Msg == a.r.ID &&
		(ev.Type == MessageDropped && ev.Node == a.peer ||
			ev.Type == TransferLost && ev.Peer == a.peer)
	if unstored && a.fresh {
		delete(a.r.carriers, a.peer)
	}
	switch ev.Type {
	case MessageCreated:
		r := l.rec(ev.Msg)
		r.Source, r.Dest = ev.Node, ev.Peer
		r.Created, r.Size, r.InitialCopies = ev.T, ev.Size, ev.Copies
		r.holders[ev.Node] = true
	case MessageForwarded:
		r := l.rec(ev.Msg)
		r.Forwards = append(r.Forwards, Forward{T: ev.T, From: ev.Node,
			To: ev.Peer, Copies: ev.Copies, Kind: ev.Kind})
		r.holders[ev.Peer] = true
		if ev.Kind == "handoff" {
			delete(r.holders, ev.Node)
		}
		l.arrival.r, l.arrival.peer, l.arrival.fresh = r, ev.Peer, !r.carriers[ev.Peer]
		r.carriers[ev.Peer] = true
	case MessageDelivered:
		r := l.rec(ev.Msg)
		if !r.delivered {
			r.delivered = true
			r.DeliveredAt, r.Latency, r.Hops = ev.T, ev.Latency, ev.Hops
			r.lastRelay, r.deliverIdx = ev.Node, len(r.Forwards)
			l.deliveries = append(l.deliveries, r)
		}
		// The delivering node discards its now-useless copy.
		delete(r.holders, ev.Node)
		r.carriers[ev.Peer] = true
	case MessageDropped:
		r := l.rec(ev.Msg)
		r.Removals = append(r.Removals, Removal{T: ev.T, Node: ev.Node,
			Cause: "policy", Priority: ev.Priority})
		delete(r.holders, ev.Node)
	case MessageExpired:
		r := l.rec(ev.Msg)
		r.Removals = append(r.Removals, Removal{T: ev.T, Node: ev.Node,
			Cause: "expired"})
		delete(r.holders, ev.Node)
	case MessagePurged:
		r := l.rec(ev.Msg)
		r.Removals = append(r.Removals, Removal{T: ev.T, Node: ev.Node,
			Cause: ev.Kind})
		delete(r.holders, ev.Node)
	case MessageRefused:
		l.rec(ev.Msg).Refused++
	case TransferAbort:
		l.rec(ev.Msg).Aborted++
	case TransferLost:
		// A black hole's loss follows the forward that credited it with a
		// copy it never stored; a radio loss has no forward, and its
		// receiver holds no copy.
		r := l.rec(ev.Msg)
		r.Lost++
		delete(r.holders, ev.Peer)
	}
}

// Live returns message id's true n_i at this point of the stream, as node
// asks it: the number of nodes holding a copy. holds reports whether node's
// own buffer holds one; see Seen. It is O(1) and does not finalize.
func (l *Ledger) Live(id msg.ID, node int, holds bool) int {
	r, ok := l.recs[id]
	if !ok {
		return 0
	}
	n := len(r.holders)
	if !holds && r.holders[node] {
		n--
	}
	return n
}

// Seen returns message id's true m_i at this point of the stream, as node
// asks it: the non-source nodes that stored a copy or, as destination,
// consumed one. It is O(1) and does not finalize.
//
// A node scores a newcomer between the event that announces its copy
// (created, or forwarded to it) and the store, when the stream already
// counts the node as a holder and, on a first arrival, as a carrier. So a
// node whose own buffer does not hold the copy (holds false) leaves itself
// out of n_i, and out of m_i when the pending arrival of that copy is to it
// and is its first. The next event settles the arrival, and no other node
// asks in between, so both answers equal the buffers' at every query.
func (l *Ledger) Seen(id msg.ID, node int, holds bool) int {
	r, ok := l.recs[id]
	if !ok {
		return 0
	}
	n := len(r.carriers)
	if r.carriers[r.Source] {
		n--
	}
	if a := l.arrival; !holds && a.r == r && a.peer == node && a.fresh && node != r.Source {
		n--
	}
	return n
}

// Count returns how many events of type t were folded.
func (l *Ledger) Count(t Type) uint64 {
	if int(t) >= numTypes {
		return 0
	}
	return l.counts[t]
}

// Total returns the number of events folded, of every type.
func (l *Ledger) Total() uint64 {
	var n uint64
	for _, c := range l.counts {
		n += c
	}
	return n
}

// Horizon returns the timestamp of the last folded event.
func (l *Ledger) Horizon() float64 { return l.horizon }

// Len returns the number of messages seen.
func (l *Ledger) Len() int { return len(l.order) }

// Deliveries returns delivered records in delivery order (finalized).
func (l *Ledger) Deliveries() []*MessageRecord {
	l.finalize()
	return l.deliveries
}

// Records returns every message record in creation order with fates,
// live-copy counts, and delivery paths finalized.
func (l *Ledger) Records() []*MessageRecord {
	l.finalize()
	return l.order
}

// Record returns the finalized record for one message (nil when unseen).
func (l *Ledger) Record(id msg.ID) *MessageRecord {
	r, ok := l.recs[id]
	if !ok {
		return nil
	}
	l.finalize()
	return r
}

func (l *Ledger) finalize() {
	for _, r := range l.order {
		r.LiveCopies = len(r.holders)
		r.Seen = len(r.carriers)
		if r.carriers[r.Source] {
			r.Seen--
		}
		last := ""
		if n := len(r.Removals); n > 0 {
			last = r.Removals[n-1].Cause
		}
		switch {
		case r.delivered:
			r.Fate = FateDelivered
			r.reconstructPath()
		case r.LiveCopies > 0:
			r.Fate = FateStranded
		case last == "expired":
			r.Fate = FateExpired
		case last == "wipe":
			r.Fate = FateWiped
		default:
			// Every copy died by eviction (including drop-on-arrival at the
			// source: a created event immediately followed by a drop).
			r.Fate = FateDropped
		}
	}
}

// reconstructPath rebuilds the custody chain of the delivered copy: walk
// backwards from the delivering relay through the forward that gave each
// carrier its copy (the latest one before the carrier passed it on, so
// re-received copies resolve to the right lineage), terminating at the
// originator. The result runs source → … → lastRelay → dest.
func (r *MessageRecord) reconstructPath() {
	rev := []int{r.Dest, r.lastRelay}
	cur, idx := r.lastRelay, r.deliverIdx
	for {
		found := -1
		for i := idx - 1; i >= 0; i-- {
			if r.Forwards[i].To == cur {
				found = i
				break
			}
		}
		if found < 0 {
			break // cur acquired the copy by originating it
		}
		cur, idx = r.Forwards[found].From, found
		rev = append(rev, cur)
	}
	path := make([]int, len(rev))
	for i, n := range rev {
		path[len(rev)-1-i] = n
	}
	r.Path = path
}

// FoldLog replays a JSONL event log (any io.Reader; use OpenLog for files)
// into a fresh ledger.
func FoldLog(r io.Reader) (*Ledger, error) {
	l := NewLedger()
	lr := NewLogReader(r)
	for {
		ev, err := lr.Next()
		if err == io.EOF {
			return l, nil
		}
		if err != nil {
			return nil, err
		}
		l.Emit(ev)
	}
}

// WriteRecords writes records as one JSON object per line, in the order
// given. Field order is MessageRecord's declaration order, so a ledger's
// Records of a same-seed run encode byte-identically.
func WriteRecords(w io.Writer, recs []*MessageRecord) error {
	for _, r := range recs {
		b, err := json.Marshal(r)
		if err != nil {
			return fmt.Errorf("obs: encoding ledger record %d: %w", r.ID, err)
		}
		if _, err := w.Write(append(b, '\n')); err != nil {
			return err
		}
	}
	return nil
}
