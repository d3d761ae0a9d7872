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
// positions, the fine cells, the kinetic planner (kinetic.go), the naive
// scan's neighbour list (nlist.go), the scan counters and its own record of
// which pairs are up, and makes each scan tick in two halves: scanDowns
// returns the tick's downs in key order, scanUps its ups in emission order,
// which emitOrdered alone knows. The link layer (network.go) applies them,
// always through applyDowns, applyUps and finishScan, whoever scanned:
//
//   - a run-ahead world (links that depend on motion alone) runs the
//     scanner on its own goroutine, ahead of the engine (ahead.go);
//   - a lockstep world (battery, churn or link flapping) calls both halves
//     inline on each scan tick, applying the downs in between, because a
//     teardown's battery drain can silence a radio the ups then see;
//   - a replaying world builds no scanner and applies a recorded plan.
//
// The scanner reads the link layer only through links, for the battery and
// churn gates of the contact predicate, which only lockstep worlds have.

// scanner turns motion into link transitions for one run.
type scanner struct {
	models    []mobility.Model
	positions []geo.Point
	// cells is the fine tiling, of edge the largest radio range or
	// Config.CellSize: the kinetic planner's buckets and the cells the up
	// order ranks.
	cells    geo.Cells
	interval float64
	// radio is the uniform range; ranges, when non-nil, gives each node
	// its own, and maxRange is the largest of all.
	radio    float64
	ranges   []float64
	maxRange float64
	// force is the Config.Planner the planner is built from on the first
	// tick.
	force Planner

	// links is the link layer whose battery and churn state gate the
	// contact predicate. A run-ahead world has neither (both fields stay
	// nil), so its scanner never touches state the engine's goroutine
	// writes.
	links *Manager

	// plan is the kinetic planner, built on the first tick; nil runs the
	// naive scan, which tests the pairs on list (nlist.go).
	plan *kinetic
	list nlist
	// flapped suppresses re-up of pairs whose contact the flap model cut,
	// until the nodes genuinely separate (nil unless flapping is enabled).
	flapped map[pairKey]bool

	// up holds every up pair in no meaningful order: pairs join at the end
	// and leave by swap-removal through upAt, their index in up. Walks that
	// reach a transition sort what they collect.
	up   []pairKey
	upAt map[pairKey]int32

	// ticks counts the scan ticks made; the current tick's index is
	// ticks-1.
	ticks int64
	// work is the current tick's scan work; downs and ups its transitions,
	// reused from tick to tick.
	work  tickWork
	downs []pairKey
	ups   []pairKey
	// cands collects the tick's up candidates in no meaningful order, for
	// emitOrdered; ord and first are its scratch, first allocated on the
	// first naive tick with two or more candidates.
	cands []pairKey
	ord   []upCand
	first []int32
	// record, when set, receives every tick (Config.RecordPlan).
	record *ContactPlan
}

// tickWork is one scan tick's planner work: its share of ScanStats, and the
// load monitor's retirement when it came at this tick.
type tickWork struct {
	checked, skipped, wakeups uint64
	fallback                  string
}

// newScanner builds the scanner of m's config over models, with fine cells
// of edge cell.
func newScanner(m *Manager, models []mobility.Model, cell, maxRange float64) *scanner {
	n := len(models)
	s := &scanner{
		models:    models,
		positions: make([]geo.Point, n),
		cells:     geo.NewCells(m.cfg.Area, cell),
		list:      newList(models, m.cfg.Area, cell, maxRange, m.cfg.ScanInterval, m.cfg.Planner == ReferencePlanner),
		interval:  m.cfg.ScanInterval,
		radio:     m.cfg.Range,
		ranges:    m.cfg.Ranges,
		maxRange:  maxRange,
		force:     m.cfg.Planner,
		links:     m,
		upAt:      make(map[pairKey]int32),
		record:    m.cfg.RecordPlan,
	}
	if m.faults.FlapEnabled() {
		s.flapped = make(map[pairKey]bool)
	}
	return s
}

// scanDowns makes the first half of the next scan tick, at time now: it
// samples positions, lets the planner check what is awake, and returns the
// tick's downs in key order, already gone from the up record. The slice is
// reused by the next tick.
func (s *scanner) scanDowns(now float64) []pairKey {
	s.ticks++
	if s.ticks == 1 {
		s.plan = s.newPlanner()
	}
	s.work = tickWork{}
	s.downs = s.downs[:0]
	s.ups = s.ups[:0]
	if s.plan != nil {
		s.parkedDowns(now)
	} else {
		for i, model := range s.models {
			s.positions[i] = model.Pos(now)
		}
		s.collectDowns()
	}
	return s.downs
}

// scanUps makes the second half of the tick scanDowns began and returns its
// ups in emission order, already in the up record; s.work then holds the
// whole tick's work. The slice is reused by the next tick.
func (s *scanner) scanUps(now float64) []pairKey {
	if s.plan != nil {
		s.parkedUps()
	} else {
		// Downs came first and freed endpoints; the naive ups are every
		// in-contact listed pair that is not up yet.
		pairs := s.listCands()
		switch len(s.cands) {
		case 0:
		case 1:
			s.bringUp(s.cands[0])
		default:
			s.emitRanked()
		}
		s.cands = s.cands[:0]
		// Separated pairs may flap again on their next genuine contact.
		for k := range s.flapped {
			if !s.pairInContact(int(k[0]), int(k[1])) {
				delete(s.flapped, k)
			}
		}
		s.work.checked += uint64(len(s.up)) + uint64(pairs) + uint64(len(s.flapped))
	}
	if s.record != nil {
		s.record.add(s.ticks-1, s.downs, s.ups)
	}
	return s.ups
}

// plannerFor resolves p for a fleet of n nodes: AutoPlanner becomes the
// naive scan below kineticFrom nodes and the kinetic planner from there.
func plannerFor(p Planner, n int) Planner {
	switch {
	case p != AutoPlanner:
		return p
	case n < kineticFrom:
		return NaivePlanner
	}
	return KineticPlanner
}

// newPlanner builds the run's kinetic planner, or nil for the naive scan.
func (s *scanner) newPlanner() *kinetic {
	if plannerFor(s.force, len(s.models)) == KineticPlanner {
		return newKinetic(s)
	}
	return nil
}

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
	if s.plan != nil {
		s.plan.onLinkUp(k)
	}
}

// forget takes pair k out of the up record, if it is there, and wakes what
// the planner parked around it: every teardown, the scan's own or a flap or
// churn cut, goes through here, and the next tick re-parks what is
// genuinely far. This conservative wake is what keeps fault interactions
// exact.
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
	if s.plan != nil {
		s.plan.onLinkDown(k)
	}
}

// flap cuts up pair k outside the scan and keeps it down until the nodes
// genuinely separate.
func (s *scanner) flap(k pairKey) {
	s.flapped[k] = true
	s.forget(k)
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
// built. rank(ci) must return the smallest id of the nodes in fine cell ci
// this tick, and both endpoints of every candidate must be sampled this
// tick. Every candidate is within range, and range is at most the cell
// edge, so its cells are the same or adjacent.
func (s *scanner) emitOrdered(rank func(ci int32) int32) {
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
		c.rank = rank(ca)
		ord = append(ord, c)
	}
	s.ord = ord
	slices.SortFunc(ord, cmpUpCand)
	for _, c := range ord {
		s.bringUp(c.key)
	}
}

// emitRanked is emitOrdered for the naive scan, which keeps no buckets:
// one pass over every node's fine cell ranks the cells.
// The caller must have sampled every position this tick. Descending ids
// leave each occupied cell's smallest in first; cells empty this tick keep
// stale entries, which emitOrdered never reads.
func (s *scanner) emitRanked() {
	if s.first == nil {
		cols, rows := s.cells.Dims()
		s.first = make([]int32, cols*rows)
	}
	for i := len(s.positions) - 1; i >= 0; i-- {
		s.first[s.cells.CellIndex(s.positions[i])] = int32(i)
	}
	s.emitOrdered(s.firstID)
}

// firstID ranks fine cell ci by the smallest id emitRanked found in it.
func (s *scanner) firstID(ci int32) int32 { return s.first[ci] }

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
