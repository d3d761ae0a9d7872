package core

import (
	"slices"
	"testing"
	"testing/quick"
	"unsafe"

	"sdsrp/internal/msg"
	"sdsrp/internal/rng"
)

func TestDropTableOwnRecord(t *testing.T) {
	dt := NewDropTable(3)
	if dt.RejectsIncoming(1) || dt.DroppedCount(1) != 0 {
		t.Fatal("fresh table not empty")
	}
	dt.RecordDrop(1, 100)
	if !dt.RejectsIncoming(1) {
		t.Fatal("own drop not rejected")
	}
	if dt.DroppedCount(1) != 1 {
		t.Fatalf("DroppedCount = %d", dt.DroppedCount(1))
	}
	// Duplicate drop does not double-count.
	dt.RecordDrop(1, 200)
	if dt.DroppedCount(1) != 1 {
		t.Fatalf("DroppedCount after dup = %d", dt.DroppedCount(1))
	}
}

func TestDropTableGossip(t *testing.T) {
	a := NewDropTable(1)
	b := NewDropTable(2)
	a.RecordDrop(10, 50)
	b.MergeFrom(a)
	if b.DroppedCount(10) != 1 {
		t.Fatalf("b count = %d after merge", b.DroppedCount(10))
	}
	// b did not drop 10 itself, so it does not reject it.
	if b.RejectsIncoming(10) {
		t.Fatal("b rejects a message it never dropped")
	}
	// a learns of b's drops too.
	b.RecordDrop(11, 60)
	a.MergeFrom(b)
	if a.DroppedCount(11) != 1 || a.DroppedCount(10) != 1 {
		t.Fatalf("a counts = %d,%d", a.DroppedCount(10), a.DroppedCount(11))
	}
}

func TestDropTableNewestRecordWins(t *testing.T) {
	a := NewDropTable(1)
	b := NewDropTable(2)
	c := NewDropTable(3)

	a.RecordDrop(10, 50)
	b.MergeFrom(a) // b caches a@50 with {10}
	a.RecordDrop(11, 80)
	c.MergeFrom(a) // c caches a@80 with {10,11}

	// b has the stale record; merging from c upgrades it.
	b.MergeFrom(c)
	if b.DroppedCount(11) != 1 {
		t.Fatal("newer record did not propagate through intermediary")
	}
	// Merging the stale copy back into c must not regress it.
	c.MergeFrom(b)
	if c.DroppedCount(11) != 1 {
		t.Fatal("stale record overwrote newer one")
	}
}

func TestDropTableOwnRecordAuthoritative(t *testing.T) {
	a := NewDropTable(1)
	b := NewDropTable(2)
	a.RecordDrop(10, 50)
	b.MergeFrom(a)
	// Forge a "newer" record for owner 1 inside b's cache by having b's
	// table gossiped back; a must keep its own version.
	a.RecordDrop(11, 60)
	a.MergeFrom(b)
	if a.DroppedCount(11) != 1 {
		t.Fatal("gossip overwrote the owner's own record")
	}
	if !a.RejectsIncoming(11) {
		t.Fatal("own drop lost after merge")
	}
}

func TestDropTableMergeIsolation(t *testing.T) {
	// After a merge, the owner's later drops must not leak into the cached
	// record: the view shares the owner's log but covers only the prefix it
	// adopted.
	a := NewDropTable(1)
	b := NewDropTable(2)
	a.RecordDrop(10, 50)
	b.MergeFrom(a)
	a.RecordDrop(12, 55)
	if b.DroppedCount(12) != 0 {
		t.Fatal("cached record sees a drop made after the merge")
	}
}

func TestDropTableCounts(t *testing.T) {
	tables := make([]*DropTable, 5)
	for i := range tables {
		tables[i] = NewDropTable(i)
	}
	// Nodes 0,1,2 drop message 7 at different times.
	tables[0].RecordDrop(7, 10)
	tables[1].RecordDrop(7, 20)
	tables[2].RecordDrop(7, 30)
	// Gossip chain 0->3, 1->3, 2->3.
	tables[3].MergeFrom(tables[0])
	tables[3].MergeFrom(tables[1])
	tables[3].MergeFrom(tables[2])
	if tables[3].DroppedCount(7) != 3 {
		t.Fatalf("count = %d, want 3", tables[3].DroppedCount(7))
	}
	if tables[3].Records() != 3 {
		t.Fatalf("records = %d, want 3", tables[3].Records())
	}
}

func TestDropTableForget(t *testing.T) {
	a := NewDropTable(1)
	b := NewDropTable(2)
	a.RecordDrop(10, 50)
	a.RecordDrop(11, 51)
	b.RecordDrop(10, 60)
	a.MergeFrom(b)
	if a.DroppedCount(10) != 2 {
		t.Fatalf("precondition: count=%d", a.DroppedCount(10))
	}
	a.Forget(10)
	if a.DroppedCount(10) != 0 {
		t.Fatal("Forget left counts")
	}
	if a.DroppedCount(11) != 1 {
		t.Fatal("Forget removed unrelated message")
	}
	if a.RejectsIncoming(10) {
		t.Fatal("Forget left rejection state")
	}
}

// Property: however records are gossiped around, a node's DroppedCount for a
// message equals the number of distinct owners that dropped it among the
// records it has seen (eventual consistency of the count derivation).
func TestPropertyGossipCountConsistency(t *testing.T) {
	f := func(ops []uint16) bool {
		const nNodes = 6
		tables := make([]*DropTable, nNodes)
		for i := range tables {
			tables[i] = NewDropTable(i)
		}
		dropped := make([]map[msg.ID]bool, nNodes) // truth: who dropped what
		for i := range dropped {
			dropped[i] = map[msg.ID]bool{}
		}
		now := 1.0
		for _, op := range ops {
			a := int(op) % nNodes
			b := int(op>>4) % nNodes
			if op%3 == 0 {
				id := msg.ID(op % 7)
				tables[a].RecordDrop(id, now)
				dropped[a][id] = true
			} else if a != b {
				tables[a].MergeFrom(tables[b])
				tables[b].MergeFrom(tables[a])
			}
			now++
		}
		// Fully gossip everything to node 0.
		for i := 1; i < nNodes; i++ {
			tables[0].MergeFrom(tables[i])
		}
		for id := msg.ID(0); id < 7; id++ {
			want := 0
			for i := 0; i < nNodes; i++ {
				if dropped[i][id] {
					want++
				}
			}
			if tables[0].DroppedCount(id) != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// refDropTable is the previous DropTable, kept as the reference the
// shared-log table is checked against: every node holds a private sorted
// copy of every owner's record, merges diff consecutive generations, and
// nothing is ever forgotten. Its answers for live ids are what the windowed
// table must reproduce.
type refDropTable struct {
	self    int
	records []*refRecord
	nrec    int
	counts  map[msg.ID]int
}

type refRecord struct {
	time float64
	ids  []msg.ID // sorted
}

func newRefDropTable(self int) *refDropTable {
	return &refDropTable{self: self, counts: map[msg.ID]int{}}
}

func (t *refDropTable) record(owner int) *refRecord {
	if owner >= len(t.records) {
		t.records = append(t.records, make([]*refRecord, owner+1-len(t.records))...)
	}
	return t.records[owner]
}

func (t *refDropTable) RecordDrop(id msg.ID, now float64) {
	rec := t.record(t.self)
	if rec == nil {
		rec = &refRecord{}
		t.records[t.self] = rec
		t.nrec++
	}
	rec.time = now
	if pos, dup := slices.BinarySearch(rec.ids, id); !dup {
		rec.ids = slices.Insert(rec.ids, pos, id)
		t.counts[id]++
	}
}

func (t *refDropTable) MergeFrom(peer *refDropTable) {
	for owner, rec := range peer.records {
		if rec == nil || owner == t.self {
			continue
		}
		cur := t.record(owner)
		if cur != nil && cur.time >= rec.time {
			continue
		}
		var old []msg.ID
		if cur == nil {
			cur = &refRecord{}
			t.records[owner] = cur
			t.nrec++
		} else {
			old = cur.ids
		}
		i, j := 0, 0
		for i < len(old) || j < len(rec.ids) {
			switch {
			case j >= len(rec.ids) || (i < len(old) && old[i] < rec.ids[j]):
				t.counts[old[i]]--
				i++
			case i >= len(old) || rec.ids[j] < old[i]:
				t.counts[rec.ids[j]]++
				j++
			default:
				i, j = i+1, j+1
			}
		}
		cur.time = rec.time
		cur.ids = append(cur.ids[:0], rec.ids...)
	}
}

func (t *refDropTable) RejectsIncoming(id msg.ID) bool {
	if t.self >= len(t.records) || t.records[t.self] == nil {
		return false
	}
	_, ok := slices.BinarySearch(t.records[t.self].ids, id)
	return ok
}

func (t *refDropTable) Reset() {
	clear(t.records)
	t.nrec = 0
	clear(t.counts)
}

// TestDropTableMatchesReference drives the windowed table and the reference
// with the same random RecordDrop / MergeFrom / Forget / Reset sequences and
// requires identical answers for every live id. Time advances only on some
// steps, so equal-time drops (and equal-time records across a Reset) are
// common. Messages die in id order, as in a world where ids follow creation
// order and share one TTL: a dead frontier only advances, drops hit only
// ids at or above it, and each advance makes a random subset of nodes
// Forget one of the newly dead ids, as an expiry sweep reaches only the
// holders and each forgets the highest id it held. Below the frontier the
// table may answer anything, which is the contract Forget documents.
func TestDropTableMatchesReference(t *testing.T) {
	const nodes, window = 8, 40
	for seed := uint64(1); seed <= 40; seed++ {
		r := rng.New(seed)
		got := make([]*DropTable, nodes)
		want := make([]*refDropTable, nodes)
		for i := range got {
			got[i], want[i] = NewDropTable(i), newRefDropTable(i)
		}
		var dead msg.ID // every id below it has expired
		now := 0.0
		for step := 0; step < 400; step++ {
			if r.Bool(0.5) {
				now++
			}
			a, b := r.IntN(nodes), r.IntN(nodes)
			switch p := r.Float64(); {
			case p < 0.45:
				id := dead + msg.ID(r.IntN(window))
				got[a].RecordDrop(id, now)
				want[a].RecordDrop(id, now)
			case p < 0.9:
				got[a].MergeFrom(got[b])
				want[a].MergeFrom(want[b])
			case p < 0.97:
				prev := dead
				dead += msg.ID(1 + r.IntN(3))
				for n := range got {
					if r.Bool(0.5) {
						got[n].Forget(prev + msg.ID(r.IntN(int(dead-prev))))
					}
				}
			default:
				got[a].Reset()
				want[a].Reset()
			}
			for n := range got {
				if g, w := got[n].Records(), want[n].nrec; g != w {
					t.Fatalf("seed %d step %d node %d: Records %d, reference %d", seed, step, n, g, w)
				}
				for id := dead; id < dead+window; id++ {
					if g, w := got[n].DroppedCount(id), want[n].counts[id]; g != w {
						t.Fatalf("seed %d step %d node %d msg %d: DroppedCount %d, reference %d",
							seed, step, n, id, g, w)
					}
					if g, w := got[n].RejectsIncoming(id), want[n].RejectsIncoming(id); g != w {
						t.Fatalf("seed %d step %d node %d msg %d: RejectsIncoming %v, reference %v",
							seed, step, n, id, g, w)
					}
				}
			}
		}
	}
}

// TestDropTableMergeAllocs: once a table's views and counts have grown,
// adopting newer records allocates nothing — the merge copies views into
// the shared logs and bumps counts.
func TestDropTableMergeAllocs(t *testing.T) {
	const owners, runs = 8, 100
	src := make([]*DropTable, owners)
	for o := range src {
		src[o] = NewDropTable(o)
	}
	// carriers[k] caches every owner's record after its k-th drop, so each
	// merge below adopts one new id per owner.
	carriers := make([]*DropTable, runs+2)
	for k := range carriers {
		carriers[k] = NewDropTable(owners)
		for o, s := range src {
			s.RecordDrop(msg.ID(k*owners+o), float64(k))
			carriers[k].MergeFrom(s)
		}
	}
	dst := NewDropTable(owners + 1)
	dst.RecordDrop(msg.ID(len(carriers)*owners), 0) // grows counts past every id
	k := 0
	allocs := testing.AllocsPerRun(runs, func() {
		dst.MergeFrom(carriers[k])
		k++
	})
	if allocs != 0 {
		t.Fatalf("steady-state MergeFrom allocates %v times per call", allocs)
	}
	if got := dst.DroppedCount(msg.ID(runs * owners)); got != 1 {
		t.Fatalf("last merge not adopted: DroppedCount = %d", got)
	}
}

// TestDropTableSize: every node carries a table, and idle ones dominate
// large traffic-free fleets, so the header must stay in the 64 B size class.
func TestDropTableSize(t *testing.T) {
	if size := unsafe.Sizeof(DropTable{}); size > 64 {
		t.Fatalf("DropTable is %d B, want <= 64", size)
	}
}

// TestDropTableCapacityTracksWindow slides a 300-id window over 30 000 ids,
// each recorded by the owner and gossiped in from a peer, and requires the
// backing arrays to stay within 1.5× the live slots plus a little: the dead
// prefix is shed, not carried until the horizon.
func TestDropTableCapacityTracksWindow(t *testing.T) {
	const window, ids = 300, 30_000
	own, peer := NewDropTable(0), NewDropTable(1)
	for id := msg.ID(0); id < ids; id++ {
		own.RecordDrop(id, float64(id))
		peer.RecordDrop(id, float64(id))
		own.MergeFrom(peer)
		if id >= window {
			own.Forget(id - window)
			peer.Forget(id - window)
		}
		if got := own.DroppedCount(id); got != 2 {
			t.Fatalf("id %d: DroppedCount = %d, want 2", id, got)
		}
		if own.DroppedCount(id-window) != 0 || !own.RejectsIncoming(id) {
			t.Fatalf("id %d: the window's edges read wrong", id)
		}
		if slots, c := own.Slots(), own.Capacity(); c > slots*3/2+64 {
			t.Fatalf("id %d: %d entries of capacity for %d live slots", id, c, slots)
		}
	}
}
