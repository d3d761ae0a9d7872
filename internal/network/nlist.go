package network

import (
	"math"

	"sdsrp/internal/geo"
	"sdsrp/internal/mobility"
)

// This file holds the naive scan's neighbour list, a Verlet list (L. Verlet,
// Phys. Rev. 159, 98, 1967). Rather than build a grid and enumerate its
// pairs on every tick, the naive scan lists, every period ticks, every node
// pair within radius = 3 × the largest radio range, from one geo.Grid pass;
// on the ticks in between only listed pairs are tested, and only the list's
// members, the nodes on at least one listed pair, are sampled.
//
// Exactness: the period is boundTicks of the gap DistLowerBound(radius²) −
// maxRange at closing speed 2 × the fleet's largest MaxSpeed. An unlisted
// pair was farther than radius at the build, so it cannot come within the
// largest range on any tick the list serves, nor on the rebuild tick, the
// one tick of margin the bound keeps. The list filters on distance only;
// the contact predicate (radios, per-node ranges) still runs on every
// listed pair within the largest range on every tick, so battery and churn
// worlds stay exact. Those listed pairs are exactly the pairs a grid pass
// at the largest range would find, so the scan counter does not change
// either.
//
// Members: every pair a served tick reads is listed, so its endpoints are
// members and a served tick samples nothing else; a build tick samples
// every node. An up candidate is a listed pair by construction. An up pair
// came up from the list since the build, or it held through the build,
// where the predicate keeps it only within range: the downs drop every up
// pair out of contact before the build.
//
// Rank: a tick with two or more up candidates orders them by the smallest
// id in each endpoint's fine cell (scanner.emitOrdered), which may be a
// node the tick did not sample. The build grid finds it: until the next
// build a node moves less than half the gap, under maxRange = radius/3 and
// so under a third of a build cell, whose edge is radius. A node
// in fine cell ci now therefore sat, at the build, in a build cell that
// overlaps ci's box grown by one build cell on every side; rank walks those
// cells, sampling the non-members it reads.
//
// When the bound gives fewer than two ticks (a teleporting model, or a
// fleet that can close two ranges within two ticks), the list is rebuilt
// every tick at radius = the largest range through the same code: the
// per-tick grid pass, the reference the differential tests hold the list
// to by reporting an unbounded speed.

// maxPeriod caps the list's period, so that the accumulated float error of
// tick-time addition stays far inside the one tick of margin; a list
// rebuilt once every million ticks is already free.
const maxPeriod = 1_000_000

// nlist is the naive scan's neighbour list.
type nlist struct {
	area geo.Rect
	// radius is the listed pairs' reach and the build grid's cell edge.
	radius float64
	period int64
	// due is the scanner tick (scanner.ticks) of the next build; all
	// reports whether the current tick sampled every node.
	due int64
	all bool
	// grid, built on the first build, holds the last build's buckets.
	grid  *geo.Grid
	pairs [][2]int32
	// member marks the nodes on a listed pair, which members lists in
	// ascending order.
	member  []bool
	members []int32
}

// newList sizes the neighbour list of models, scanned every interval
// seconds over area with largest radio range maxRange.
func newList(models []mobility.Model, area geo.Rect, maxRange, interval float64) nlist {
	vmax := 0.0
	for _, m := range models {
		vmax = max(vmax, m.MaxSpeed())
	}
	radius := 3 * maxRange
	period := boundTicks(geo.DistLowerBound(radius*radius)-maxRange, 2*vmax, interval)
	if period < 2 {
		radius, period = maxRange, 1
	}
	return nlist{area: area, radius: radius, period: period}
}

// boundTicks is the list's motion bound: the whole ticks of interval
// seconds a gap of gap metres provably stays open when it closes at most c
// metres per second, ⌊gap/(c·interval)⌋, so that the ticks before the last
// keep one tick of margin. It is 0 when the gap is already closed or c is
// +Inf (a teleporting model), and maxPeriod when c is zero or the bound
// exceeds the cap.
//
// Performance contract: pure arithmetic, no allocation.
func boundTicks(gap, c, interval float64) int64 {
	if gap <= 0 {
		return 0
	}
	if c <= 0 {
		return maxPeriod
	}
	k := gap / c / interval
	if !(k > 0) {
		return 0 // c = +Inf (teleporting model), or NaN
	}
	if !(k < maxPeriod) {
		return maxPeriod
	}
	return int64(k)
}

// sample samples the positions of the tick at time now: every node's on a
// build tick, the members' alone on a tick the list serves.
func (s *scanner) sample(now float64) {
	l := &s.list
	s.now = now
	l.all = s.ticks >= l.due
	if l.all {
		for i, model := range s.models {
			s.positions[i] = model.Pos(now)
		}
		return
	}
	for _, i := range l.members {
		s.positions[i] = s.models[i].Pos(now)
	}
}

// build lists every pair within the radius of this tick's positions, which
// the caller must have sampled for every node, and the members.
func (s *scanner) build() {
	l := &s.list
	if l.grid == nil {
		l.grid = geo.NewGrid(l.area, l.radius, len(s.positions))
		l.member = make([]bool, len(s.positions))
	}
	l.grid.Update(s.positions)
	l.pairs = l.grid.Pairs(l.radius, l.pairs[:0])
	clear(l.member)
	for _, p := range l.pairs {
		l.member[p[0]], l.member[p[1]] = true, true
	}
	l.members = l.members[:0]
	for i, in := range l.member {
		if in {
			l.members = append(l.members, int32(i))
		}
	}
	l.due = s.ticks + l.period
}

// listCands makes the tick's up candidates: it rebuilds the list when due
// and appends to s.cands every listed pair within the largest range that
// is in contact and not up. It returns the number of listed pairs within
// the largest range, the pairs it checked.
func (s *scanner) listCands() int {
	l := &s.list
	if s.ticks >= l.due {
		s.build()
	}
	r2 := s.maxRange * s.maxRange
	checked := 0
	for _, p := range l.pairs {
		a, b := int(p[0]), int(p[1])
		if s.positions[a].Dist2(s.positions[b]) > r2 {
			continue
		}
		checked++
		if !s.pairInContact(a, b) {
			continue
		}
		if k := pairKey(p); !s.isUp(k) {
			s.cands = append(s.cands, k)
		}
	}
	return checked
}

// rank returns the smallest id of the nodes in fine cell ci at this tick,
// ci's place in the naive emission order (emitOrdered), from the build
// grid (see the file comment). ci must hold a node this tick. Each build
// cell lists its ids ascending, so its walk stops at its first id in ci,
// or at the best id so far.
func (s *scanner) rank(ci int32) int32 {
	l := &s.list
	cols, _ := s.cells.Dims()
	x := l.area.Min.X + float64(int(ci)%cols)*s.maxRange
	y := l.area.Min.Y + float64(int(ci)/cols)*s.maxRange
	// The build cells of the grown box's corners; CellIndex clamps, so a
	// fine cell on the area's border reaches the build grid's border too.
	lo := l.grid.CellIndex(geo.Point{X: x - l.radius, Y: y - l.radius})
	hi := l.grid.CellIndex(geo.Point{X: x + s.maxRange + l.radius, Y: y + s.maxRange + l.radius})
	gcols, _ := l.grid.Dims()
	best := int32(math.MaxInt32)
	for row := lo / gcols; row <= hi/gcols; row++ {
		for c := row*gcols + lo%gcols; c <= row*gcols+hi%gcols; c++ {
			for _, j := range l.grid.CellIDs(c) {
				if j >= best {
					break
				}
				if s.cells.CellIndex(s.current(j)) == int(ci) {
					best = j
					break
				}
			}
		}
	}
	return best
}

// current returns node j's position at this tick, sampling it first when
// the tick sampled only the members and j is not one.
func (s *scanner) current(j int32) geo.Point {
	if !s.list.all && !s.list.member[j] {
		s.positions[j] = s.models[j].Pos(s.now)
	}
	return s.positions[j]
}
