package core

import "sdsrp/internal/msg"

// dropLog is one epoch of one node's dropped list (paper Fig. 5): the ids it
// has evicted, in drop order. Only the owner appends, and nothing below a
// length the owner has published is ever rewritten, so every table caching
// the owner's record shares this one log and stores only a prefix length:
// the fleet holds each dropped id once, not once per node. A churn Reset
// starts a new log; peers keep views of the old one until gossip brings them
// a newer record.
type dropLog struct {
	ids []msg.ID
	has []bool // message id -> in the owner's list; read only by the owner
}

// dropView is a table's record for one owner: the first n ids of the
// owner's log, stamped with the time of the owner's latest drop among them.
type dropView struct {
	log  *dropLog
	n    int
	time float64
}

// DropTable is a node's view of every node's drop record, gossiped on
// contact. It answers two questions for SDSRP:
//
//   - d̂_i (DroppedCount): how many nodes are known to have dropped message
//     i, feeding n_i via Eq. 14;
//   - RejectsIncoming: whether this node itself has dropped i and must
//     refuse to receive it again ("nodes reject receiving the message
//     already in their dropped lists").
//
// Storage is owner-indexed and id-indexed: views[owner] is the newest known
// record for that node, and counts[id] the number of owners whose record
// holds id, kept incrementally because d̂_i is read far more often than
// records change. All slices grow on demand, so the table still accepts
// sparse or test-fabricated ids; real runs use the world's dense 1..K
// numbering. Drop times must not decrease, as simulation time does not.
type DropTable struct {
	self   int
	views  []dropView // owner -> newest known record; log nil = none
	nrec   int        // views with a log (Records)
	counts []int32    // message id -> #owners whose record contains it
}

// NewDropTable returns an empty table for node self.
func NewDropTable(self int) *DropTable {
	return &DropTable{self: self}
}

// extend returns s lengthened with zero values so that index i exists.
func extend[T any](s []T, i int) []T {
	if i >= len(s) {
		s = append(s, make([]T, i+1-len(s))...)
	}
	return s
}

// view returns the slot for owner, growing the table as needed. The pointer
// is valid until the next call.
func (t *DropTable) view(owner int) *dropView {
	t.views = extend(t.views, owner)
	return &t.views[owner]
}

// RecordDrop registers that this node evicted message id at time now,
// updating its own record's generation time (only the owner may do this).
func (t *DropTable) RecordDrop(id msg.ID, now float64) {
	v := t.view(t.self)
	if v.log == nil {
		v.log = &dropLog{}
		t.nrec++
	}
	v.time = now
	l := v.log
	if l.has = extend(l.has, int(id)); l.has[id] {
		return
	}
	l.has[id] = true
	l.ids = append(l.ids, id)
	v.n = len(l.ids)
	t.counts = extend(t.counts, int(id))
	t.counts[id]++
}

// MergeFrom absorbs every record in the peer's table that is newer than the
// locally cached copy for the same owner, following the Fig. 5 update rule
// (keep the record with the latest record time; a node's own record is
// authoritative and never overwritten by gossip). Adopting a record copies
// the peer's view and counts only the ids appended since the cached one, so
// a merge costs O(Δ) and steady-state gossip does not allocate. A different
// log means the owner was reset in between: the whole old view is
// uncounted and the whole new one counted.
func (t *DropTable) MergeFrom(peer *DropTable) {
	for owner, rec := range peer.views {
		if rec.log == nil || owner == t.self {
			continue
		}
		cur := t.view(owner)
		if cur.log != nil && cur.time >= rec.time {
			continue
		}
		switch {
		case cur.log == nil:
			t.nrec++
		case cur.log != rec.log:
			for _, id := range cur.log.ids[:cur.n] {
				t.counts[id]--
			}
			cur.n = 0
		}
		for _, id := range rec.log.ids[cur.n:rec.n] {
			t.counts = extend(t.counts, int(id))
			t.counts[id]++
		}
		*cur = rec
	}
}

// DroppedCount returns d̂_i: the number of distinct nodes known to have
// dropped message id.
func (t *DropTable) DroppedCount(id msg.ID) int {
	if int(id) >= len(t.counts) || id < 0 {
		return 0
	}
	return int(t.counts[id])
}

// RejectsIncoming reports whether this node previously dropped id itself
// and therefore refuses to store it again.
func (t *DropTable) RejectsIncoming(id msg.ID) bool {
	if t.self >= len(t.views) || id < 0 {
		return false
	}
	l := t.views[t.self].log
	return l != nil && int(id) < len(l.has) && l.has[id]
}

// Forget removes this node's knowledge of id when the message expires: d̂_i
// drops to zero and the node no longer rejects it. It is O(1) because the
// id stays in every log, so a later merge may count it again; that is exact
// for every id still queried, because the world sweeps TTL on all hosts in
// one event and an expired message is never stored, scored or offered
// again. Calling Forget for a live message would corrupt d̂_i.
func (t *DropTable) Forget(id msg.ID) {
	if int(id) < len(t.counts) && id >= 0 {
		t.counts[id] = 0
	}
	if t.RejectsIncoming(id) {
		t.views[t.self].log.has[id] = false
	}
}

// Records returns the number of owner records known (diagnostics).
func (t *DropTable) Records() int { return t.nrec }

// Reset discards every record — the node's own and all gossiped copies.
// Used by the fault layer's crash/reboot churn when a reboot wipes state;
// peers still hold (and will re-gossip) this node's old record, and the
// node's next drop starts a new log.
func (t *DropTable) Reset() {
	clear(t.views)
	t.nrec = 0
	clear(t.counts)
}
