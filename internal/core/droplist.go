package core

import "sdsrp/internal/msg"

// dropLog is one epoch of one node's dropped list (paper Fig. 5): the ids it
// has evicted, in drop order. Only the owner appends, and nothing at a
// position the owner has published is ever rewritten, so every table caching
// the owner's record shares this one log and stores only a prefix length:
// the fleet holds each dropped id once, not once per node. Positions are
// absolute: the owner trims the log's expired prefix (base counts the ids
// trimmed), and a view's length still counts from the log's first drop. A
// churn Reset starts a new log; peers keep views of the old one until gossip
// brings them a newer record.
type dropLog struct {
	ids  []msg.ID // ids[off:] hold drop positions base, base+1, ...
	base int      // drop positions trimmed from the front
	off  int32    // ids[:off] are trimmed, awaiting compaction
	// has[hasOff + id − owner's floor] -> in the owner's list; read only by
	// the owner.
	hasOff int32
	has    []bool
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
// record for that node, and counts[dead+id−floor] the number of owners whose
// record holds id, kept incrementally because d̂_i is read far more often
// than records change. Both questions concern live messages only, so the
// table keeps state for ids at or above its floor, below which every id has
// expired and been swept from every buffer (see Forget); the id-indexed
// slices shed their dead prefix as the floor rises (trimFront), and grow on
// demand above it. Drop times must not decrease, as simulation time does
// not.
type DropTable struct {
	self   int32
	nrec   int32      // views with a log (Records)
	floor  msg.ID     // every id below it is dead; counts[dead] is id floor
	dead   int32      // counts[:dead] are below the floor, awaiting compaction
	views  []dropView // owner -> newest known record; log nil = none
	counts []int32    // dead + id − floor -> #owners whose record contains it
}

// NewDropTable returns an empty table for node self.
func NewDropTable(self int) *DropTable {
	t := new(DropTable)
	InitDropTable(t, self)
	return t
}

// InitDropTable fills t in place as an empty table for node self, as
// NewDropTable would build it, for callers that keep a fleet's tables in one
// slab.
func InitDropTable(t *DropTable, self int) {
	*t = DropTable{self: int32(self)}
}

// grow lengthens views to exactly n owners. It runs once per RecordDrop or
// MergeFrom, never per owner, so a table holds one slot per known owner
// rather than append's doubling.
func (t *DropTable) grow(n int) {
	if n > len(t.views) {
		views := make([]dropView, n)
		copy(views, t.views)
		t.views = views
	}
}

// reach makes entry i of the live window (*s)[*off:] exist, zero-filled,
// and returns its index in *s. Growing past the backing array sheds the dead
// prefix: the live window moves to a new array with a quarter of headroom
// (at least 8 entries). append would copy the dead prefix along, and from
// 256 entries on add 192 entries of slack besides.
func reach[T any](s *[]T, off *int32, i int) int {
	j := int(*off) + i
	if j < len(*s) {
		return j
	}
	if j >= cap(*s) {
		n := make([]T, len(*s)-int(*off), i+1+max((i+1)/4, 8))
		copy(n, (*s)[*off:])
		*s, *off, j = n, 0, i
	}
	n := len(*s)
	*s = (*s)[:j+1]
	clear((*s)[n:])
	return j
}

// trimFront drops the first d entries of the live window (*s)[*off:]. The
// dead prefix stays in place until it outgrows the live window; then the
// window is copied down over it and *s shortened to match, so the backing
// array never holds more dead entries than live ones, at O(1) amortized
// copies per dropped entry.
func trimFront[T any](s *[]T, off *int32, d int) {
	*off += int32(min(d, len(*s)-int(*off)))
	if live := len(*s) - int(*off); int(*off) > live {
		copy(*s, (*s)[*off:])
		*s = (*s)[:live]
		*off = 0
	}
}

// advance raises the floor to f. The dead prefix of counts and of the
// owner's membership goes through trimFront; the owner also trims its log's
// leading dead ids, which no view can need counted again.
func (t *DropTable) advance(f msg.ID) {
	if f <= t.floor {
		return
	}
	d := int(f - t.floor)
	t.floor = f
	trimFront(&t.counts, &t.dead, d)
	if int(t.self) >= len(t.views) || t.views[t.self].log == nil {
		return
	}
	l := t.views[t.self].log
	trimFront(&l.has, &l.hasOff, d)
	live, k := l.ids[l.off:], 0
	for k < len(live) && live[k] < f {
		k++
	}
	trimFront(&l.ids, &l.off, k)
	l.base += k
}

// count adds delta to the count of every id at drop positions [from, to)
// of l that is at or above the floor. Positions the owner has trimmed held
// ids below its floor, which are dead, so they are skipped.
func (t *DropTable) count(l *dropLog, from, to int, delta int32) {
	from = max(from, l.base)
	if from >= to {
		return
	}
	off := int(l.off) - l.base
	for _, id := range l.ids[off+from : off+to] {
		if id < t.floor {
			continue
		}
		i := reach(&t.counts, &t.dead, int(id-t.floor))
		t.counts[i] += delta
	}
}

// RecordDrop registers that this node evicted message id at time now,
// updating its own record's generation time (only the owner may do this).
// An id below the floor is dead, so there is nothing to record.
func (t *DropTable) RecordDrop(id msg.ID, now float64) {
	if id < t.floor {
		return
	}
	t.grow(int(t.self) + 1)
	v := &t.views[t.self]
	if v.log == nil {
		v.log = &dropLog{}
		t.nrec++
	}
	v.time = now
	l := v.log
	i := int(id - t.floor)
	h := reach(&l.has, &l.hasOff, i)
	if l.has[h] {
		return
	}
	l.has[h] = true
	n := len(l.ids) - int(l.off)
	j := reach(&l.ids, &l.off, n)
	l.ids[j] = id
	v.n = l.base + n + 1
	c := reach(&t.counts, &t.dead, i)
	t.counts[c]++
}

// MergeFrom absorbs the peer's knowledge. It first adopts the peer's floor
// when that is higher: the floor is exact knowledge that every id below it
// is dead, and gossips like a record. Then it takes every record in the
// peer's table that is newer than the locally cached copy for the same
// owner, following the Fig. 5 update rule (keep the record with the latest
// record time; a node's own record is authoritative and never overwritten
// by gossip). Adopting a record copies the peer's view and counts only the
// ids appended since the cached one, so a merge costs O(Δ) and steady-state
// gossip does not allocate. A different log means the owner was reset in
// between: the whole old view is uncounted and the whole new one counted.
func (t *DropTable) MergeFrom(peer *DropTable) {
	t.advance(peer.floor)
	t.grow(len(peer.views))
	for owner, rec := range peer.views {
		if rec.log == nil || owner == int(t.self) {
			continue
		}
		cur := &t.views[owner]
		if cur.log != nil && cur.time >= rec.time {
			continue
		}
		switch {
		case cur.log == nil:
			t.nrec++
		case cur.log != rec.log:
			t.count(cur.log, 0, cur.n, -1)
			cur.n = 0
		}
		t.count(rec.log, cur.n, rec.n, 1)
		*cur = rec
	}
}

// DroppedCount returns d̂_i: the number of distinct nodes known to have
// dropped message id.
func (t *DropTable) DroppedCount(id msg.ID) int {
	i := int(t.dead) + int(id) - int(t.floor)
	if i < int(t.dead) || i >= len(t.counts) {
		return 0
	}
	return int(t.counts[i])
}

// RejectsIncoming reports whether this node previously dropped id itself
// and therefore refuses to store it again.
func (t *DropTable) RejectsIncoming(id msg.ID) bool {
	if int(t.self) >= len(t.views) {
		return false
	}
	l := t.views[t.self].log
	if l == nil || id < t.floor {
		return false
	}
	i := int(l.hasOff) + int(id-t.floor)
	return i < len(l.has) && l.has[i]
}

// Forget is called by the TTL sweep when message id expires here. It
// declares id and every lower id dead: from then on d̂ reads 0 and nothing
// is rejected for them, and the table stops storing them. That is exact
// because every message in a run shares one TTL and ids are assigned in
// creation order, so when id expires every lower id has expired too, and
// the world sweeps every host, down ones included, in the same event
// (Host.ExpireMessages checks the order, TestExpirySweepIsComplete the
// sweep). Calling Forget for a live message corrupts d̂ for every id up to
// it.
func (t *DropTable) Forget(id msg.ID) { t.advance(id + 1) }

// Records returns the number of owner records known (diagnostics).
func (t *DropTable) Records() int { return int(t.nrec) }

// Slots returns the live id-indexed entries the table holds: its counts,
// plus the membership flags and log ids of its own record (diagnostics;
// peers' logs are counted by their owners).
func (t *DropTable) Slots() int {
	n := len(t.counts) - int(t.dead)
	if int(t.self) < len(t.views) {
		if l := t.views[t.self].log; l != nil {
			n += len(l.has) - int(l.hasOff) + len(l.ids) - int(l.off)
		}
	}
	return n
}

// Capacity returns the entries the backing arrays behind Slots hold, live,
// dead and spare (diagnostics): every slice here starts at its array's
// start, so its capacity is the whole array.
func (t *DropTable) Capacity() int {
	n := cap(t.counts)
	if int(t.self) < len(t.views) {
		if l := t.views[t.self].log; l != nil {
			n += cap(l.has) + cap(l.ids)
		}
	}
	return n
}

// Reset discards every record — the node's own and all gossiped copies —
// and every count. Used by the fault layer's crash/reboot churn when a
// reboot wipes state; peers still hold (and will re-gossip) this node's old
// record, and the node's next drop starts a new log. The floor survives: it
// only says which ids are dead.
func (t *DropTable) Reset() {
	clear(t.views)
	t.nrec = 0
	clear(t.counts)
}
