package main

import (
	"fmt"
	"time"

	"sdsrp/internal/core"
	"sdsrp/internal/msg"
	"sdsrp/internal/obs"
)

// gossipStats is the drop-list gossip layer's work, timed call by call.
type gossipStats struct {
	mergeTime, recordTime, forgetTime time.Duration
	merges, records, forgets          int
	entries                           int // Σ DroppedCount over all tables at the end
}

func (g *gossipStats) add(o gossipStats) {
	g.mergeTime += o.mergeTime
	g.recordTime += o.recordTime
	g.forgetTime += o.forgetTime
	g.merges += o.merges
	g.records += o.records
	g.forgets += o.forgets
	g.entries += o.entries
}

func (g gossipStats) total() time.Duration { return g.mergeTime + g.recordTime + g.forgetTime }

// replayGossip rebuilds every node's drop table from a run's captured event
// stream, timing each core.DropTable call:
//
//   - contact_up(a, b): t[a].MergeFrom(t[b]), then t[b].MergeFrom(t[a]), the
//     order in which the network layer runs the two OnLinkUp hooks;
//   - dropped(h, id): t[h].RecordDrop(id, T), except a source's refusal of
//     its own new message, the drop that directly follows its created event
//     at the same node and time and is never recorded;
//   - expired(h, id): t[h].Forget(id).
func replayGossip(events []obs.Event, nodes int) ([]*core.DropTable, gossipStats) {
	t := make([]*core.DropTable, nodes)
	for i := range t {
		t[i] = core.NewDropTable(i)
	}
	var g gossipStats
	var prev obs.Event
	for i, e := range events {
		switch e.Type {
		case obs.ContactUp:
			a, b := t[e.Node], t[e.Peer]
			start := time.Now()
			a.MergeFrom(b)
			b.MergeFrom(a)
			g.mergeTime += time.Since(start)
			g.merges += 2
		case obs.MessageDropped:
			if i > 0 && prev.Type == obs.MessageCreated && prev.Msg == e.Msg &&
				prev.Node == e.Node && prev.T == e.T {
				break
			}
			start := time.Now()
			t[e.Node].RecordDrop(e.Msg, e.T)
			g.recordTime += time.Since(start)
			g.records++
		case obs.MessageExpired:
			start := time.Now()
			t[e.Node].Forget(e.Msg)
			g.forgetTime += time.Since(start)
			g.forgets++
		}
		prev = e
	}
	return t, g
}

// compareTables checks the replayed tables against the live ones on
// Records, DroppedCount and RejectsIncoming for every id up to maxID, and
// returns Σ DroppedCount over the replayed tables.
func compareTables(replayed, live []*core.DropTable, maxID msg.ID) (int, error) {
	if len(replayed) != len(live) {
		return 0, fmt.Errorf("%d replayed tables for %d nodes", len(replayed), len(live))
	}
	entries := 0
	for n, r := range replayed {
		l := live[n]
		if r.Records() != l.Records() {
			return 0, fmt.Errorf("node %d: replay has %d records, live %d", n, r.Records(), l.Records())
		}
		for id := msg.ID(0); id <= maxID; id++ {
			rc, lc := r.DroppedCount(id), l.DroppedCount(id)
			if rc != lc {
				return 0, fmt.Errorf("node %d msg %d: replay counts %d drops, live %d", n, id, rc, lc)
			}
			if r.RejectsIncoming(id) != l.RejectsIncoming(id) {
				return 0, fmt.Errorf("node %d msg %d: replay and live disagree on rejection", n, id)
			}
			entries += rc
		}
	}
	return entries, nil
}
