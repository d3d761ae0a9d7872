package network

// Sharded parallel contact scan (DESIGN.md §13).
//
// The scan is the only per-tick O(n)–O(n²) work in the engine, and the only
// phase whose inputs are read-only snapshots (positions, liveness) rather
// than evolving event state — so it is the one place the engine can go
// multi-core without touching the event loop's total order. The design is
// strictly "parallel propose, serial commit":
//
//   Phase A (parallel)  each shard samples mobility positions for a
//                       contiguous chunk of nodes. Models are node-private
//                       (constructor-injected RNG substreams), and every
//                       node is sampled at every tick exactly as the naive
//                       scanner does, so model state evolves identically
//                       regardless of worker count.
//   barrier
//   window start        every W ticks the stripe assignment is refreshed
//   (serial)            from current positions: the area is cut into
//                       `stripes` vertical bands, and W is the conservative
//                       lookahead shard.WindowTicks(band−maxRange, c_max,
//                       interval) — nodes assigned to non-adjacent bands
//                       cannot meet within the window. The per-shard id
//                       lists are rebuilt here too, once per window: the
//                       assignment is frozen between window starts, so
//                       bucket membership is reusable for W ticks.
//   Phase B (parallel)  shard s indexes the nodes of bands s and s+1 in a
//                       private grid covering just those two bands
//                       (UpdateSubset over the window's frozen id list —
//                       O(band) work, no full-fleet rescan) and proposes
//                       its owned candidate contacts: pairs within maxRange
//                       whose lower band is s. Cross-band pairs are counted
//                       as hand-offs. All shared state touched here
//                       (positions, liveness, ranges) is read-only until
//                       the barrier.
//   barrier
//   merge (serial)      link-downs tear down in the canonical sorted-key
//                       order (same code path as the serial scanners);
//                       link-ups apply the proposed candidates — directly
//                       when the tick has at most one, or by replaying the
//                       naive grid pass when two or more arrive in the same
//                       tick, reproducing the serial up-ordering exactly
//                       (the same trick sweep.go uses). All event emission,
//                       transfer scheduling, and RNG draws happen here, on
//                       one goroutine, in the serial engine's order.
//
// Byte-identity across worker counts follows: the proposal phases compute
// the same pair set the naive scanner would (the window bound makes the
// stripe enumeration complete; pairInContact is the same predicate reading
// the same positions), and every ordering that reaches the event stream is
// produced by the identical serial code. If no valid window exists — a
// +Inf MaxSpeed model, or bands too narrow for the fleet's speed — the
// constructor refuses and the Manager falls back to the configured serial
// strategy for the whole run.

import (
	"math"

	"sdsrp/internal/geo"
	"sdsrp/internal/shard"
)

// parScan is the sharded strategy's per-run state. All slices indexed by
// shard are written only by that shard between barriers; everything else is
// touched only from the serial merge phase.
type parScan struct {
	m       *Manager
	pool    *shard.Pool
	stripes int
	window  int     // ticks per lookahead window, ≥ 1
	bandW   float64 // stripe width in metres
	minX    float64
	tick    int // ticks into the current window; 0 = assignment tick

	stripe []int32 // node -> band index, frozen at window start

	// Per-shard scratch, disjoint by construction.
	grids   []*geo.Grid
	ids     [][]int32
	pairs   [][][2]int32
	cand    [][]pairKey
	checked []uint64
	handoff []uint64
}

// newParScan builds the sharded strategy, or returns nil when the scenario
// admits no conservative window (serial fallback): fewer than two workers
// or nodes, a fleet with an unbounded MaxSpeed, or stripes so narrow that
// one tick of head-on closing could cross the inter-band gap.
func newParScan(m *Manager, workers int) *parScan {
	n := len(m.hosts)
	if workers < 2 || n < 2 {
		m.noteFallback("parscan:degenerate-input->serial")
		return nil
	}
	cmax := 0.0
	for _, model := range m.models {
		cmax = math.Max(cmax, model.MaxSpeed())
	}
	bandW := m.cfg.Area.W() / float64(workers)
	window := shard.WindowTicks(bandW-m.maxRange, cmax, m.cfg.ScanInterval)
	if window < 1 {
		if math.IsInf(cmax, 1) {
			m.noteFallback("parscan:unbounded-max-speed->serial")
		} else {
			m.noteFallback("parscan:no-conservative-window->serial")
		}
		return nil
	}
	ps := &parScan{
		m:       m,
		pool:    shard.NewPool(workers),
		stripes: workers,
		window:  window,
		bandW:   bandW,
		minX:    m.cfg.Area.Min.X,
		stripe:  make([]int32, n),
		grids:   make([]*geo.Grid, workers),
		ids:     make([][]int32, workers),
		pairs:   make([][][2]int32, workers),
		cand:    make([][]pairKey, workers),
		checked: make([]uint64, workers),
		handoff: make([]uint64, workers),
	}
	for s := range ps.grids {
		// Each shard's grid covers only its own two bands, not the whole
		// area: the cell table scales with the band, and clamping at the
		// sub-rect edges preserves candidate completeness exactly as it
		// does on the full grid (an in-range pair's clamped positions still
		// land in the same or adjacent columns). Enumeration order inside a
		// shard never reaches the event stream — the serial merge re-derives
		// the emission order — so the sub-rect is unobservable.
		lo := ps.minX + float64(s)*bandW
		hi := lo + 2*bandW
		if hi > m.cfg.Area.Max.X {
			hi = m.cfg.Area.Max.X
		}
		band := geo.Rect{
			Min: geo.Point{X: lo, Y: m.cfg.Area.Min.Y},
			Max: geo.Point{X: hi, Y: m.cfg.Area.Max.Y},
		}
		ps.grids[s] = geo.NewGrid(band, m.grid.CellSize(), n)
	}
	return ps
}

// chunk returns the half-open node range [lo, hi) that shard s samples in
// Phase A: contiguous, near-equal slices of the id space. The partition is
// load-balance only — sampling is per-node independent — so it need not
// match the spatial stripes.
func chunk(n, shards, s int) (lo, hi int) {
	lo = n * s / shards
	hi = n * (s + 1) / shards
	return lo, hi
}

// scanSharded is the sharded strategy's tick. It must emit exactly the
// event sequence scanNaive would.
func (m *Manager) scanSharded(now float64) {
	ps := m.par
	n := len(m.hosts)

	// Phase A: parallel position sampling over disjoint node chunks.
	ps.pool.Run(ps.stripes, func(s int) {
		lo, hi := chunk(n, ps.stripes, s)
		for i := lo; i < hi; i++ {
			m.positions[i] = m.models[i].Pos(now)
		}
	})
	m.shardBarriers++

	// Window start: refresh the band assignment from current positions.
	// Serial and O(n); the window bound guarantees the assignment stays
	// conservative for the next `window` ticks.
	if ps.tick == 0 {
		m.shardWindows++
		for s := range ps.ids {
			ps.ids[s] = ps.ids[s][:0]
		}
		for i := 0; i < n; i++ {
			b := int32((m.positions[i].X - ps.minX) / ps.bandW)
			if b < 0 {
				b = 0
			} else if b >= int32(ps.stripes) {
				b = int32(ps.stripes) - 1
			}
			ps.stripe[i] = b
			// Shard s indexes bands s and s+1, so a node in band b belongs
			// to shards b−1 and b. Built once per window — the assignment
			// is frozen until the next window start, so the previous
			// per-tick O(n·workers) re-collection was pure waste. The
			// ascending append order preserves UpdateSubset's enumeration
			// order exactly.
			if b > 0 {
				ps.ids[b-1] = append(ps.ids[b-1], int32(i))
			}
			ps.ids[b] = append(ps.ids[b], int32(i))
		}
	}
	ps.tick++
	if ps.tick >= ps.window {
		ps.tick = 0
	}

	// Phase B: each shard proposes its owned in-contact candidates. Writes
	// are confined to slot s of the per-shard slices; reads (positions,
	// stripe, energy, churn, ranges) are frozen until the barrier.
	ps.pool.Run(ps.stripes, func(s int) {
		g := ps.grids[s]
		g.UpdateSubset(m.positions, ps.ids[s])
		ps.pairs[s] = g.Pairs(m.maxRange, ps.pairs[s][:0])
		cand := ps.cand[s][:0]
		for _, p := range ps.pairs[s] {
			a, b := int(p[0]), int(p[1])
			sa, sb := ps.stripe[a], ps.stripe[b]
			if sa > sb {
				sa, sb = sb, sa
			}
			if sa != int32(s) {
				continue // both endpoints in band s+1: owned by shard s+1
			}
			ps.checked[s]++
			if !m.pairInContact(a, b) {
				continue
			}
			if sa != sb {
				ps.handoff[s]++
			}
			cand = append(cand, keyOf(a, b))
		}
		ps.cand[s] = cand
	})
	m.shardBarriers++

	// Serial merge. Downs first, in the canonical sorted-key order — the
	// exact code path scanNaive runs.
	freed := m.freedBuf[:0]
	for _, l := range m.collectDowns() {
		freed = m.linkDown(l, now, freed)
	}

	// Ups: count the genuinely new links among the proposals. Zero or one
	// need no ordering decision; two or more replay the naive grid pass so
	// the up sequence — and every transfer and gossip event it triggers —
	// matches the serial engine byte for byte.
	ups := 0
	var only pairKey
	for s := range ps.cand {
		for _, k := range ps.cand[s] {
			if m.flapped[k] {
				continue
			}
			if m.linkOf(k) != nil {
				continue
			}
			if ups == 0 {
				only = k
			}
			ups++
		}
	}
	switch {
	case ups == 1:
		m.linkUp(only, now)
	case ups >= 2:
		m.grid.Update(m.positions)
		m.pairBuf = m.grid.Pairs(m.maxRange, m.pairBuf[:0])
		m.pairsChecked += uint64(len(m.pairBuf))
		for _, p := range m.pairBuf {
			if !m.pairInContact(int(p[0]), int(p[1])) {
				continue
			}
			k := pairKey{p[0], p[1]}
			if m.flapped[k] {
				continue
			}
			if m.linkOf(k) == nil {
				m.linkUp(k, now)
			}
		}
	}

	// Separated pairs may flap again on their next genuine contact.
	for k := range m.flapped {
		if !m.pairInContact(int(k[0]), int(k[1])) {
			delete(m.flapped, k)
		}
	}
	for s := range ps.checked {
		m.pairsChecked += ps.checked[s]
		m.shardHandoffs += ps.handoff[s]
		ps.checked[s], ps.handoff[s] = 0, 0
	}
	m.pairsChecked += uint64(len(m.live)) + uint64(len(m.flapped))
	m.finishScan(freed, now)
}
