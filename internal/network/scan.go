package network

import (
	"math"
	"slices"

	"sdsrp/internal/geo"
	"sdsrp/internal/mobility"
)

// This file holds the scanner, the half of the radio model that turns
// motion into link transitions. It owns the mobility models, the sampled
// positions, the bucket grid, the planners (park.go), the scan counters and
// its own record of which pairs are up, and makes each scan tick in two
// halves: scanDowns returns the tick's downs in key order, scanUps its ups
// in emission order. The link layer (network.go) applies them, always
// through applyDowns, applyUps and finishScan, whoever scanned:
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
	grid      *geo.Grid
	pairBuf   [][2]int32
	interval  float64
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

	// plan is the motion-bounded planner, built on the first tick; nil
	// runs the naive scan.
	plan planner
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
	// record, when set, receives every tick (Config.RecordPlan).
	record *ContactPlan
}

// tickWork is one scan tick's planner work: its share of ScanStats, and the
// load monitor's retirement when it came at this tick.
type tickWork struct {
	checked, skipped, wakeups uint64
	fallback                  string
}

// newScanner builds the scanner of m's config over models, with buckets of
// edge cell.
func newScanner(m *Manager, models []mobility.Model, cell, maxRange float64) *scanner {
	n := len(models)
	s := &scanner{
		models:    models,
		positions: make([]geo.Point, n),
		grid:      geo.NewGrid(m.cfg.Area, cell, n),
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
		s.parkedUps(now)
	} else {
		// Downs came first and freed endpoints; the naive ups are every
		// in-contact grid pair that is not up yet, in grid order.
		pairs := s.gridUps()
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
// lazy sweep below kineticFrom nodes and the kinetic planner from there.
func plannerFor(p Planner, n int) Planner {
	switch {
	case p != AutoPlanner:
		return p
	case n < kineticFrom:
		return LazyPlanner
	}
	return KineticPlanner
}

// newPlanner builds the run's planner; nil is the naive scan.
func (s *scanner) newPlanner() planner {
	switch plannerFor(s.force, len(s.models)) {
	case LazyPlanner:
		return newSweep(s)
	case KineticPlanner:
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
// consulting a freshly built pair set: pairInContact true implies
// membership in the grid's pair list (the grid finds every pair within
// maxRange ≥ the pair range), so the diff is exact without a per-tick set.
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

// gridUps rebuilds the grid from this tick's positions, which the caller
// must have sampled for every node, and brings up every in-contact pair in
// the grid's enumeration order, skipping up pairs and flap-suppressed pairs
// (a flapped contact stays down until the nodes genuinely separate). That
// order is the naive scan's, which every planner's multi-up tick reproduces
// through this method. It returns the number of grid pairs checked.
func (s *scanner) gridUps() int {
	s.grid.Update(s.positions)
	s.pairBuf = s.grid.Pairs(s.maxRange, s.pairBuf[:0])
	for _, p := range s.pairBuf {
		if !s.pairInContact(int(p[0]), int(p[1])) {
			continue
		}
		k := pairKey{p[0], p[1]}
		if s.flapped[k] {
			continue
		}
		s.bringUp(k)
	}
	return len(s.pairBuf)
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
