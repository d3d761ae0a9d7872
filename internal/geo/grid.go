package geo

import "math"

// Grid is a uniform spatial hash over a rectangle. Items are identified by a
// dense integer id in [0, n). The cell size should be at least the query
// radius so a 3×3 cell neighbourhood covers every candidate pair.
//
// The grid is rebuilt (Update) every scan tick rather than maintained
// incrementally, and a rebuild is a counting sort into flat arrays: the
// items' ids and positions are grouped by occupied cell, cells in
// first-occurrence order and ids in insertion order within a cell. An
// occupancy bitmap answers "is this neighbour cell occupied" with one bit
// test, and a dense cell→slot table says where an occupied cell's items
// are, so an empty cell costs one bit and one int32, and queries read only
// the occupied cells' contiguous runs.
// Sparse fleets, where most items sit alone in their cell and most
// neighbour lookups find nothing, are the case this layout is built for.
type Grid struct {
	area Rect
	cell float64
	cols int
	rows int

	// bits marks the cells occupied by the current build, one bit per
	// cell; slot[ci] is cell ci's index in occ and is meaningful only
	// where its bit is set.
	bits []uint64
	slot []int32
	// occ lists the occupied cells in first-occurrence order.
	occ []occCell
	// ids and pts hold the built items grouped by occupied cell: cell s
	// owns ids[occ[s].lo:occ[s].hi], and pts[k] is the position of ids[k].
	ids []int32
	pts []Point
	// into is build scratch: the occ index of each inserted item.
	into []int32
}

// occCell is one occupied cell: its column and row, cached so queries do no
// integer division, and its item run in Grid.ids and Grid.pts.
type occCell struct {
	cx, cy int32
	lo, hi int32
}

// NewGrid creates a grid over area with the given cell size for n items.
// cell must be > 0.
func NewGrid(area Rect, cell float64, n int) *Grid {
	cols := int(area.W()/cell) + 1
	rows := int(area.H()/cell) + 1
	if cols < 1 {
		cols = 1
	}
	if rows < 1 {
		rows = 1
	}
	return &Grid{
		area: area,
		cell: cell,
		cols: cols,
		rows: rows,
		bits: make([]uint64, (cols*rows+63)/64),
		slot: make([]int32, cols*rows),
		occ:  make([]occCell, 0, n),
		ids:  make([]int32, n),
		pts:  make([]Point, n),
		into: make([]int32, n),
	}
}

// Dims returns the grid's column and row counts.
func (g *Grid) Dims() (cols, rows int) { return g.cols, g.rows }

// CellIndex exposes the grid's cell mapping: the dense index of the cell
// containing p, with out-of-area points clamped to the border cells. Two
// structures that bucket by CellIndex of the same Grid agree exactly —
// including every float-rounding decision — which is what lets the kinetic
// scanner (internal/network) keep its own incremental buckets while staying
// byte-compatible with this grid's Pairs enumeration.
//
// Performance contract: pure arithmetic, no allocation.
func (g *Grid) CellIndex(p Point) int {
	cx, cy := g.coords(p)
	return cy*g.cols + cx
}

// BoundaryDist returns the distance from p to the nearest edge of cell ci's
// box (≤ 0 when p lies on the boundary or outside the box, which happens
// for clamped out-of-area points). Callers using it as a containment margin
// must subtract their own conservative slack.
//
// Performance contract: pure arithmetic (axis minima, no square roots), no
// allocation.
func (g *Grid) BoundaryDist(p Point, ci int) float64 {
	lox := g.area.Min.X + float64(ci%g.cols)*g.cell
	loy := g.area.Min.Y + float64(ci/g.cols)*g.cell
	d := p.X - lox
	if hi := lox + g.cell - p.X; hi < d {
		d = hi
	}
	if dy := p.Y - loy; dy < d {
		d = dy
	}
	if hi := loy + g.cell - p.Y; hi < d {
		d = hi
	}
	return d
}

// ExitTime returns a lower bound on the first time s ≥ 0 at which a point
// moving linearly from p with velocity v leaves cell ci's box: 0 when p lies
// on or outside the box (clamped out-of-area points), +Inf when it never
// does. The box is shrunk on every side by a relative 1e-9 of the cell edge
// plus 1e-9 m, at least the slack BoundaryDist's callers subtract, so rounding
// between this extrapolation, the model's interpolation and CellIndex's
// division can only make the answer earlier. Non-finite input gives 0.
//
// Performance contract: pure arithmetic, no allocation.
func (g *Grid) ExitTime(p Point, v Vec, ci int) float64 {
	lox := g.area.Min.X + float64(ci%g.cols)*g.cell
	loy := g.area.Min.Y + float64(ci/g.cols)*g.cell
	slack := g.cell*1e-9 + 1e-9
	return min(axisExit(p.X-lox-slack, lox+g.cell-p.X-slack, v.X),
		axisExit(p.Y-loy-slack, loy+g.cell-p.Y-slack, v.Y))
}

// axisExit is ExitTime along one axis: the time a coordinate lo above the
// lower bound and hi below the upper one takes to reach either at velocity
// v.
func axisExit(lo, hi, v float64) float64 {
	if !(lo > 0 && hi > 0) {
		return 0
	}
	switch {
	case v > 0:
		return hi / v
	case v < 0:
		return lo / -v
	case v == 0:
		return math.Inf(1)
	}
	return 0 // NaN
}

// coords returns the column and row of the cell containing p, clamped to
// the border cells.
func (g *Grid) coords(p Point) (cx, cy int) {
	cx = int((p.X - g.area.Min.X) / g.cell)
	cy = int((p.Y - g.area.Min.Y) / g.cell)
	if cx < 0 {
		cx = 0
	} else if cx >= g.cols {
		cx = g.cols - 1
	}
	if cy < 0 {
		cy = 0
	} else if cy >= g.rows {
		cy = g.rows - 1
	}
	return cx, cy
}

// occupied reports whether cell ci's bit is set in an occupancy bitmap.
func occupied(bits []uint64, ci int) bool { return bits[ci>>6]&(1<<(ci&63)) != 0 }

// Update replaces all item positions. len(pos) must equal the n passed to
// NewGrid.
//
// Performance contract: a two-pass counting sort into arrays sized by
// NewGrid; it clears only the previous build's occupied cells and
// allocates nothing.
func (g *Grid) Update(pos []Point) {
	g.reset()
	into := g.into[:len(pos)]
	for id := range pos {
		into[id] = g.count(pos[id])
	}
	g.offsets()
	for id := range pos {
		g.place(into[id], int32(id), pos[id])
	}
}

// reset empties the previous build. Clearing whole bitmap words is exact:
// every set bit belongs to some occupied cell, and every occupied cell's
// word is cleared.
func (g *Grid) reset() {
	for _, c := range g.occ {
		ci := int(c.cy)*g.cols + int(c.cx)
		g.bits[ci>>6] = 0
	}
	g.occ = g.occ[:0]
}

// count is the sort's first pass for an item at p: it marks p's cell
// occupied on first sight, counts the item in the cell's hi, and returns
// the cell's occ index.
func (g *Grid) count(p Point) int32 {
	cx, cy := g.coords(p)
	ci := cy*g.cols + cx
	if !occupied(g.bits, ci) {
		g.bits[ci>>6] |= 1 << (ci & 63)
		g.slot[ci] = int32(len(g.occ))
		g.occ = append(g.occ, occCell{cx: int32(cx), cy: int32(cy)})
	}
	s := g.slot[ci]
	g.occ[s].hi++
	return s
}

// offsets turns the per-cell counts into item runs, leaving each cell's hi
// at its run start as the second pass's write cursor.
func (g *Grid) offsets() {
	var off int32
	for s := range g.occ {
		c := &g.occ[s]
		n := c.hi
		c.lo, c.hi = off, off
		off += n
	}
}

// place is the sort's second pass: it appends the item to its cell's run.
func (g *Grid) place(s, id int32, p Point) {
	c := &g.occ[s]
	g.ids[c.hi] = id
	g.pts[c.hi] = p
	c.hi++
}

// Pairs appends to out every unordered pair (a,b), a<b, whose distance is at
// most radius, and returns the extended slice. radius must be ≤ the cell
// size for completeness. Occupied cells are visited in first-occurrence
// order, each pairing its own items and then those of its forward
// neighbours E, SW, S, SE (so each cell pair is visited exactly once); the
// kinetic scanner reconstructs this order, so it is part of the contract.
//
// Performance contract: compares squared distances only and writes through
// the caller's slice; with a warm out buffer Pairs allocates nothing.
func (g *Grid) Pairs(radius float64, out [][2]int32) [][2]int32 {
	r2 := radius * radius
	bits, cols, rows := g.bits, g.cols, g.rows
	for _, c := range g.occ {
		ids, pts := g.ids[c.lo:c.hi], g.pts[c.lo:c.hi]
		for i := range ids {
			for j := i + 1; j < len(ids); j++ {
				if pts[i].Dist2(pts[j]) <= r2 {
					out = appendPair(out, ids[i], ids[j])
				}
			}
		}
		cx, cy := int(c.cx), int(c.cy)
		ci := cy*cols + cx
		east := cx+1 < cols
		if east && occupied(bits, ci+1) {
			out = g.cross(ids, pts, ci+1, r2, out)
		}
		if cy+1 < rows {
			below := ci + cols
			if cx > 0 && occupied(bits, below-1) {
				out = g.cross(ids, pts, below-1, r2, out)
			}
			if occupied(bits, below) {
				out = g.cross(ids, pts, below, r2, out)
			}
			if east && occupied(bits, below+1) {
				out = g.cross(ids, pts, below+1, r2, out)
			}
		}
	}
	return out
}

// cross appends the in-range pairs between one cell's items (ids at pts)
// and the items of the occupied cell ci.
func (g *Grid) cross(ids []int32, pts []Point, ci int, r2 float64, out [][2]int32) [][2]int32 {
	o := g.occ[g.slot[ci]]
	oids, opts := g.ids[o.lo:o.hi], g.pts[o.lo:o.hi]
	for i, a := range ids {
		for j, b := range oids {
			if pts[i].Dist2(opts[j]) <= r2 {
				out = appendPair(out, a, b)
			}
		}
	}
	return out
}

func appendPair(out [][2]int32, a, b int32) [][2]int32 {
	if a > b {
		a, b = b, a
	}
	return append(out, [2]int32{a, b})
}
