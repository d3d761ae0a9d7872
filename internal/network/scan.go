package network

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"sdsrp/internal/geo"
	"sdsrp/internal/mobility"
)

// This file holds the scanner, the half of the radio model that turns
// motion into link transitions. It owns the mobility models, the sampled
// positions, the fine cells, the neighbour list (nlist.go), the scan
// counter and its own record of which pairs are up. Each scan tick is one
// call, tick, which returns the tick's downs in key order and its ups in
// emission order, which emitOrdered alone knows. The link layer
// (network.go) applies every tick through one function, applyTick,
// whoever scanned:
//
//   - a run-ahead world (no battery or churn) runs the scanner on its own
//     goroutine, ahead of the engine (ahead.go);
//   - a lockstep world (battery or churn) calls tick inline on each scan
//     tick;
//   - a replaying world builds no scanner and applies a recorded plan.
//
// The scanner knows nothing of link flaps: a flap-cut pair stays in its up
// record until the nodes separate, and the link layer keeps it down. It
// reads the link layer only through links, for the battery and churn gates
// of the contact predicate, which only lockstep worlds have.

// scanner turns motion into link transitions for one run.
type scanner struct {
	models []mobility.Model
	// positions holds each node's position at now, the current tick's
	// time, for every node the tick sampled (see scanner.sample).
	positions []geo.Point
	now       float64
	// cells is the fine tiling, of edge the largest radio range: the
	// cells the up order ranks.
	cells geo.Cells
	// radio is the uniform range; ranges, when non-nil, gives each node
	// its own, and maxRange is the largest of all.
	radio    float64
	ranges   []float64
	maxRange float64

	// links is the link layer whose battery and churn state gate the
	// contact predicate. A run-ahead world has neither (both fields stay
	// nil), so its scanner never touches state the engine's goroutine
	// writes.
	links *Manager

	// list is the neighbour list whose pairs each tick tests.
	list nlist

	// up holds every up pair in no meaningful order: pairs join at the end
	// and leave by swap-removal through upAt, their index in up. Walks that
	// reach a transition sort what they collect.
	up   []pairKey
	upAt map[pairKey]int32

	// ticks counts the scan ticks made; the current tick's index is
	// ticks-1.
	ticks int64
	// listed counts the listed pairs within the largest range that the
	// current tick checked (see checked); downs and ups are its
	// transitions, reused from tick to tick.
	listed uint64
	downs  []pairKey
	ups    []pairKey
	// cands collects the tick's up candidates in no meaningful order, for
	// emitOrdered; ord is its scratch.
	cands []pairKey
	ord   []upCand
}

// newScanner builds the scanner of m's config over models, whose largest
// radio range is maxRange.
func newScanner(m *Manager, models []mobility.Model, maxRange float64) *scanner {
	n := len(models)
	return &scanner{
		models:    models,
		positions: make([]geo.Point, n),
		cells:     geo.NewCells(m.cfg.Area, maxRange),
		list:      newList(models, m.cfg.Area, maxRange, m.cfg.ScanInterval),
		radio:     m.cfg.Range,
		ranges:    m.cfg.Ranges,
		maxRange:  maxRange,
		links:     m,
		upAt:      make(map[pairKey]int32),
	}
}

// tick makes the next scan tick, at time now: it samples positions and
// returns the tick's downs in key order, already gone from the up record,
// and its ups in emission order, already in it. Both slices are reused by
// the next tick.
func (s *scanner) tick(now float64) (downs, ups []pairKey) {
	s.ticks++
	s.downs = s.downs[:0]
	s.ups = s.ups[:0]
	s.sample(now)
	s.collectDowns()
	// The ups are every in-contact listed pair that is not up yet.
	s.listed = uint64(s.listCands())
	switch len(s.cands) {
	case 0:
	case 1:
		s.bringUp(s.cands[0])
	default:
		s.emitOrdered()
	}
	s.cands = s.cands[:0]
	return s.downs, s.ups
}

// checked returns the pairs the current tick checked, its share of
// ScanStats: every up pair and every listed pair within the largest range.
// Read it once the tick is applied, which may make the scanner forget ups.
func (s *scanner) checked() uint64 { return uint64(len(s.up)) + s.listed }

// isUp reports whether pair k is in the up record.
func (s *scanner) isUp(k pairKey) bool {
	_, ok := s.upAt[k]
	return ok
}

// bringUp makes pair k one of this tick's ups unless it is up already.
func (s *scanner) bringUp(k pairKey) {
	if s.isUp(k) {
		return
	}
	s.upAt[k] = int32(len(s.up))
	s.up = append(s.up, k)
	s.ups = append(s.ups, k)
}

// forget takes pair k out of the up record, if it is there: the scan's own
// downs, churn cuts and ups the link layer refused go through here.
func (s *scanner) forget(k pairKey) {
	i, ok := s.upAt[k]
	if !ok {
		return
	}
	last := s.up[len(s.up)-1]
	s.up[i] = last
	s.upAt[last] = i
	s.up = s.up[:len(s.up)-1]
	delete(s.upAt, k)
}

// collectDowns gathers every up pair that fails the contact predicate into
// this tick's downs and forgets them, in key order: the teardown order must
// never inherit the up record's order, or the abort/kick sequence, and
// every event it emits, would depend on which pairs happened to be
// swap-removed earlier. The predicate is recomputed per pair instead of
// consulting a freshly built pair set: pairInContact true implies the pair
// is within maxRange ≥ the pair range, where every scan finds it, so the
// diff is exact without a per-tick set.
// The predicate reads positions, so the caller must have sampled both
// endpoints of every up pair for this tick.
func (s *scanner) collectDowns() {
	for _, k := range s.up {
		if !s.pairInContact(int(k[0]), int(k[1])) {
			s.downs = append(s.downs, k)
		}
	}
	slices.SortFunc(s.downs, cmpPairKeys)
	for _, k := range s.downs {
		s.forget(k)
	}
}

// upCand carries one up candidate's position in the naive emission order:
// the generating cell's rank, the enumeration phase (0 = within the cell,
// 1..4 = the forward neighbours E, SW, S, SE), and the iteration ids (a from
// the generating cell, b from the neighbour).
type upCand struct {
	key  pairKey
	rank int32
	dir  int8
	a, b int32
}

// cmpUpCand orders up candidates by (rank, dir, a, b), the naive emission
// order. No two candidates share all four keys, so the order is total and
// any sort gives the same result.
func cmpUpCand(x, y upCand) int {
	if c := cmp.Compare(x.rank, y.rank); c != 0 {
		return c
	}
	if c := cmp.Compare(x.dir, y.dir); c != 0 {
		return c
	}
	if c := cmp.Compare(x.a, y.a); c != 0 {
		return c
	}
	return cmp.Compare(x.b, y.b)
}

// fwdDir maps a cell-coordinate delta to the 1-based index of geo.Grid's
// forward-neighbour enumeration order (E, SW, S, SE), or 0 when the delta
// is not a forward direction.
func fwdDir(dx, dy int) int8 {
	switch {
	case dx == 1 && dy == 0:
		return 1
	case dx == -1 && dy == 1:
		return 2
	case dx == 0 && dy == 1:
		return 3
	case dx == 1 && dy == 1:
		return 4
	}
	return 0
}

// emitOrdered brings up s.cands, two or more candidates of one tick, in the
// naive emission order, the one place that order is known: geo.Grid.Pairs'
// enumeration over a grid of the fine cells built from this tick's
// positions, filtered to the candidates. Pairs visits occupied cells in
// first-occurrence order, and since a build inserts ids ascending, that is
// ascending order of each cell's smallest id; within a cell it takes the
// cell's own pairs, then those with its forward neighbours E, SW, S, SE;
// within a phase, ascending (a, b), a from the generating cell. So a
// candidate's place follows from its endpoints' cells alone, and no grid is
// built. A cell's rank, the smallest id of the nodes in it this tick, comes
// from the neighbour list's build grid (scanner.rank, nlist.go). Both
// endpoints of every candidate must be sampled this tick. Every candidate
// is within the largest range, the cell edge, so its cells are the same or
// adjacent.
func (s *scanner) emitOrdered() {
	cols, _ := s.cells.Dims()
	ord := s.ord[:0]
	for _, k := range s.cands {
		ca := int32(s.cells.CellIndex(s.positions[k[0]]))
		cb := int32(s.cells.CellIndex(s.positions[k[1]]))
		c := upCand{key: k, a: k[0], b: k[1]}
		if ca != cb {
			dx := int(cb)%cols - int(ca)%cols
			dy := int(cb)/cols - int(ca)/cols
			if d := fwdDir(dx, dy); d > 0 {
				c.dir = d
			} else if d := fwdDir(-dx, -dy); d > 0 {
				c.dir, c.a, c.b, ca = d, k[1], k[0], cb
			} else {
				//lint:invariant an up candidate is within range, at most one cell edge, so its endpoints' cells are adjacent
				panic(fmt.Sprintf("network: up candidate %v spans non-adjacent cells %d and %d", k, ca, cb))
			}
		}
		c.rank = s.rank(ca)
		ord = append(ord, c)
	}
	s.ord = ord
	slices.SortFunc(ord, cmpUpCand)
	for _, c := range ord {
		s.bringUp(c.key)
	}
}

// radioOn reports whether node i's radio may link: its battery holds charge
// and churn has not crashed it.
func (s *scanner) radioOn(i int) bool {
	return s.links.energy.alive(i) && !s.links.isDown(i)
}

// pairInContact is the scan predicate: both radios on, and the distance
// within the pair's effective range (the smaller of the two radios; both
// must reach). Callers must have sampled both positions for the current
// tick.
func (s *scanner) pairInContact(a, b int) bool {
	if !s.radioOn(a) || !s.radioOn(b) {
		return false
	}
	r := s.pairRange(a, b)
	return s.positions[a].Dist2(s.positions[b]) <= r*r
}

// pairRange returns the effective radio range of the pair: a link needs
// both radios to reach.
func (s *scanner) pairRange(a, b int) float64 {
	if s.ranges == nil {
		return s.radio
	}
	return math.Min(s.ranges[a], s.ranges[b])
}
