package core

import (
	"testing"

	"sdsrp/internal/msg"
)

// Micro-benchmarks for the hot SDSRP paths: the Eq. 10 priority is
// evaluated for every buffered message at every scheduling decision, and
// the drop-table merge runs twice per contact.

func BenchmarkPriority(b *testing.B) {
	b.ReportAllocs()
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += Priority(float64(i%90), float64(i%20+1), 1+i%64, 9000, 100, 1.0/21000)
	}
	_ = sink
}

func BenchmarkTaylorPriority(b *testing.B) {
	b.ReportAllocs()
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += TaylorPriority(0.3, 0.5, float64(i%20+1), 3)
	}
	_ = sink
}

func BenchmarkEstimateSeen(b *testing.B) {
	history := []float64{100, 400, 900, 1600, 2500}
	b.ReportAllocs()
	var sink int
	for i := 0; i < b.N; i++ {
		sink += EstimateSeen(history, 2, float64(3000+i%100), 220, 100)
	}
	_ = sink
}

// BenchmarkDropTableMerge times one contact's gossip at the Table II
// long-horizon end state: 100 nodes that each dropped 300 of 3000 messages
// and know every record. Before each contact one endpoint drops a new
// message, so newer records keep spreading and merges adopt them rather
// than skip. The fleet is rebuilt untimed every 1000 contacts, which keeps
// records near 300 ids.
func BenchmarkDropTableMerge(b *testing.B) {
	const nodes, ids, msgs, epoch = 100, 300, 3000, 1000
	tables := make([]*DropTable, nodes)
	build := func() {
		for o := range tables {
			tables[o] = NewDropTable(o)
			for k := 0; k < ids; k++ {
				tables[o].RecordDrop(msg.ID((o*31+k*10)%msgs), float64(k))
			}
		}
		for _, t := range tables[1:] {
			tables[0].MergeFrom(t)
		}
		for _, t := range tables[1:] {
			t.MergeFrom(tables[0])
		}
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if i%epoch == 0 {
			b.StopTimer()
			build()
			b.StartTimer()
		}
		x, y := tables[i%nodes], tables[(i*37+11)%nodes]
		x.RecordDrop(msg.ID(msgs+i%epoch), float64(ids+i%epoch))
		if x != y {
			x.MergeFrom(y)
			y.MergeFrom(x)
		}
	}
}

func BenchmarkCensusEstimator(b *testing.B) {
	e := NewCensusEstimator(20000, 1, 100)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.OnContactStart(i%99, float64(i))
		_ = e.Lambda()
	}
}
