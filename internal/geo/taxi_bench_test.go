package geo_test

import (
	"testing"

	"sdsrp/internal/geo"
	"sdsrp/internal/mobility"
	"sdsrp/internal/rng"
)

// BenchmarkGridTaxi200 is one naive scan tick of the paper's Table III
// fleet: 200 synthetic taxis over the 13 × 12 km area with 100 m cells.
// Most taxis sit alone in their cell, so the cost is the occupied-cell walk
// and its mostly empty neighbour lookups rather than distance checks. The
// positions cycle through 64 snapshots a minute apart, so consecutive
// builds occupy different cells as they do in a run.
func BenchmarkGridTaxi200(b *testing.B) {
	const n, ticks = 200, 64
	cfg := mobility.DefaultTaxiConfig()
	s := rng.New(1)
	models := make([]*mobility.Taxi, n)
	for i := range models {
		models[i] = mobility.NewTaxi(cfg, s.SplitIndex("taxi", i))
	}
	snaps := make([][]geo.Point, ticks)
	for k := range snaps {
		snaps[k] = make([]geo.Point, n)
		for i, m := range models {
			snaps[k][i] = m.Pos(float64(k) * 60)
		}
	}
	g := geo.NewGrid(cfg.Area, 100, n)
	var buf [][2]int32
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Update(snaps[i%ticks])
		buf = g.Pairs(100, buf[:0])
	}
}
