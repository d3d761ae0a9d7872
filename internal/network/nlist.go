package network

import (
	"sdsrp/internal/geo"
	"sdsrp/internal/mobility"
)

// This file holds the naive scan's neighbour list, a Verlet list (L. Verlet,
// Phys. Rev. 159, 98, 1967). Rather than build a grid and enumerate its
// pairs on every tick, the naive scan lists, every period ticks, every node
// pair within radius = 3 × the largest radio range, from one geo.Grid pass;
// on the ticks in between only listed pairs are tested. It is the parking
// core's MaxSpeed bound applied to the whole fleet at once.
//
// Exactness: the period is boundTicks of the gap DistLowerBound(radius²) −
// maxRange at closing speed 2 × the fleet's largest MaxSpeed, the motion
// bound the parking core parks a pair on (park.go). An unlisted pair was
// farther than radius at the build, so its own parking deadline would be at
// least the period: it cannot come within the largest range on any tick the
// list serves, nor on the rebuild tick, the one tick of margin every
// deadline keeps. The list filters on distance only; the contact predicate
// (radios, per-node ranges, flap suppression) still runs on every listed
// pair within the largest range on every tick, so battery, churn and
// flapping worlds stay exact. Those listed pairs are exactly the pairs a
// grid pass at the largest range would find, so the scan counters do not
// change either.
//
// When the bound gives fewer than two ticks (a teleporting model, or a
// fleet that can close two ranges within two ticks), the list is rebuilt
// every tick at radius = the largest range through the same code: the
// per-tick grid pass. The ReferencePlanner forces that everywhere.

// nlist is the naive scan's neighbour list.
type nlist struct {
	area geo.Rect
	// cell is the edge of the build grid's cells: radius, or the fine
	// cells' edge where that is larger.
	cell   float64
	radius float64
	period int64
	// due is the scanner tick (scanner.ticks) of the next build.
	due int64
	// grid is built on the first build, so worlds that never scan naive
	// allocate no index.
	grid  *geo.Grid
	pairs [][2]int32
}

// newList sizes the neighbour list of models, scanned every interval
// seconds over area with fine cells of edge cell and largest radio range
// maxRange. reference forces period 1 at radius maxRange.
func newList(models []mobility.Model, area geo.Rect, cell, maxRange, interval float64, reference bool) nlist {
	vmax := 0.0
	for _, m := range models {
		vmax = max(vmax, m.MaxSpeed())
	}
	radius := 3 * maxRange
	period := boundTicks(geo.DistLowerBound(radius*radius)-maxRange, 2*vmax, interval)
	if period < 2 || reference {
		radius, period = maxRange, 1
	}
	return nlist{area: area, cell: max(cell, radius), radius: radius, period: period}
}

// listCands makes the naive tick's up candidates: it rebuilds the list when
// due, from this tick's positions, which the caller must have sampled for
// every node, and appends to s.cands every listed pair within the largest
// range that is in contact, not up and not flap-suppressed (a flapped
// contact stays down until the nodes genuinely separate). It returns the
// number of listed pairs within the largest range, the pairs it checked.
func (s *scanner) listCands() int {
	l := &s.list
	if s.ticks >= l.due {
		if l.grid == nil {
			l.grid = geo.NewGrid(l.area, l.cell, len(s.positions))
		}
		l.grid.Update(s.positions)
		l.pairs = l.grid.Pairs(l.radius, l.pairs[:0])
		l.due = s.ticks + l.period
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
		k := pairKey(p)
		if s.flapped[k] || s.isUp(k) {
			continue
		}
		s.cands = append(s.cands, k)
	}
	return checked
}
