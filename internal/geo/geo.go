// Package geo provides 2-D geometry primitives and a uniform-grid spatial
// index used by the contact scanner to find node pairs within radio range
// without O(N²) distance checks.
//
// # Performance contract
//
// Grid is the hot path of the naive contact scan: the network scanner's
// neighbour list calls Update then Pairs once per rebuild, every K scan
// ticks, where K is the motion bound on the list's distance margin (every
// tick when the fleet moves too fast for a margin; see PERFORMANCE.md for
// the cost model). Pairs therefore follows the append-to-out idiom: it
// appends results to the caller-supplied slice and returns the extended
// slice, so a caller that passes back the previous build's buffer as
// out[:0] queries with zero allocations at steady state. Passing nil is
// always valid and yields a fresh slice. Results alias the out buffer:
// reusing it overwrites the previous call's results in place
// (internal/geo/reuse_test.go pins these semantics).
//
// Grid.Update rebuilds the index as a counting sort into flat arrays sized
// once by NewGrid: item ids and positions grouped by occupied cell, an
// occupancy bitmap, and a dense cell→slot table. A rebuild touches only the
// items and the previous build's occupied cells and allocates nothing.
// Cells is the cell mapping alone, with no index: what the scan planners
// bucket by and the scanner's up order ranks.
//
//lint:shard-safe pure geometry plus per-instance grid state; nothing shared
package geo

import "math"

// Point is a position in metres.
type Point struct {
	X, Y float64
}

// Add returns p + v.
func (p Point) Add(v Vec) Point { return Point{p.X + v.X, p.Y + v.Y} }

// Sub returns the vector from q to p.
func (p Point) Sub(q Point) Vec { return Vec{p.X - q.X, p.Y - q.Y} }

// Dist returns the Euclidean distance between p and q. On hot paths that
// only compare against a radius, prefer Dist2 (the dtnlint hot-dist check
// enforces this in the scanner/routing packages).
func (p Point) Dist(q Point) float64 {
	dx, dy := p.X-q.X, p.Y-q.Y
	//lint:ignore hot-dist this is the canonical definition Dist2 callers avoid
	return math.Hypot(dx, dy)
}

// Dist2 returns the squared Euclidean distance between p and q. Prefer this
// on hot paths where only comparisons against a squared radius are needed.
func (p Point) Dist2(q Point) float64 {
	dx, dy := p.X-q.X, p.Y-q.Y
	return dx*dx + dy*dy
}

// DistLowerBound converts a squared distance (Point.Dist2) into a
// conservative lower bound on the true distance: the result is guaranteed
// not to exceed the exact Euclidean distance, shaving a relative 1e-9 plus
// an absolute 1e-9 m to absorb every rounding step between the coordinates
// and the square root. The kinetic contact planner derives park deadlines
// from it, where an over-estimate would skip a tick a contact could start
// on.
func DistLowerBound(d2 float64) float64 {
	d := math.Sqrt(d2)
	return d - (d*1e-9 + 1e-9)
}

// ApproachTime returns a lower bound on the first time s ≥ 0 at which two
// points moving linearly, p with velocity v and q with velocity w, come
// within distance r of each other: 0 when they already are, +Inf when their
// relative motion never brings them that close. The radius is inflated by
// DistLowerBound's slack at the current distance (a relative 1e-9 plus
// 1e-9 m), which dominates the rounding between this extrapolation and the
// interpolation a mobility model replays, so rounding can only make the
// answer earlier. Non-finite input gives 0. The contact scan planners
// (internal/network) park a pair on it for as long as both legs hold.
//
// Performance contract: pure arithmetic (two square roots), no allocation.
func ApproachTime(p Point, v Vec, q Point, w Vec, r float64) float64 {
	dx, dy := q.X-p.X, q.Y-p.Y
	wx, wy := w.X-v.X, w.Y-v.Y
	d2 := dx*dx + dy*dy
	d := math.Sqrt(d2)
	rr := r + (d*1e-9 + 1e-9)
	c := d2 - rr*rr
	if !(c > 0) {
		return 0 // within range already, or NaN
	}
	a := wx*wx + wy*wy
	if !(a < math.Inf(1)) {
		return 0 // unbounded or NaN relative velocity
	}
	b := dx*wx + dy*wy // half the linear coefficient of |D + W·s|²
	if b >= 0 {
		return math.Inf(1) // separating, or holding the distance
	}
	disc := b*b - a*c
	if disc < 0 {
		return math.Inf(1) // the closest approach stays outside rr
	}
	// The smaller root of a·s² + 2b·s + c, in the form that does not
	// cancel: b < 0 and c > 0 make both terms of the denominator positive.
	s := c / (math.Sqrt(disc) - b)
	if !(s >= 0) {
		return 0
	}
	return s
}

// Lerp linearly interpolates from p to q; t=0 yields p, t=1 yields q.
func (p Point) Lerp(q Point, t float64) Point {
	return Point{p.X + (q.X-p.X)*t, p.Y + (q.Y-p.Y)*t}
}

// Vec is a displacement in metres.
type Vec struct {
	X, Y float64
}

// Scale returns v scaled by s.
func (v Vec) Scale(s float64) Vec { return Vec{v.X * s, v.Y * s} }

// Len returns the Euclidean length of v.
func (v Vec) Len() float64 {
	//lint:ignore hot-dist canonical length definition; used off the scan path
	return math.Hypot(v.X, v.Y)
}

// Norm returns v scaled to unit length; the zero vector is returned as-is.
func (v Vec) Norm() Vec {
	l := v.Len()
	if l == 0 {
		return v
	}
	return Vec{v.X / l, v.Y / l}
}

// Rect is an axis-aligned rectangle with Min at the lower-left corner.
type Rect struct {
	Min, Max Point
}

// NewRect returns the rectangle [0,w]×[0,h].
func NewRect(w, h float64) Rect {
	return Rect{Min: Point{0, 0}, Max: Point{w, h}}
}

// W returns the rectangle width.
func (r Rect) W() float64 { return r.Max.X - r.Min.X }

// H returns the rectangle height.
func (r Rect) H() float64 { return r.Max.Y - r.Min.Y }

// Contains reports whether p lies inside r (inclusive of edges).
func (r Rect) Contains(p Point) bool {
	return p.X >= r.Min.X && p.X <= r.Max.X && p.Y >= r.Min.Y && p.Y <= r.Max.Y
}

// Clamp returns p moved to the nearest point inside r.
func (r Rect) Clamp(p Point) Point {
	return Point{
		X: math.Min(math.Max(p.X, r.Min.X), r.Max.X),
		Y: math.Min(math.Max(p.Y, r.Min.Y), r.Max.Y),
	}
}
