package geo

// refGrid is the grid's earlier per-cell-slice layout, kept only as the
// reference the flat layout is differentially tested against
// (TestGridMatchesReference). Every cell owns a slice of item ids; Update
// appends ids to their cells in insertion order and records each cell the
// first time it becomes non-empty. That insertion discipline is what fixes
// the enumeration order Grid.Pairs must reproduce exactly: occupied cells
// in first-occurrence order, each visiting itself and then its forward
// neighbours E, SW, S, SE.
type refGrid struct {
	area     Rect
	cell     float64
	cols     int
	rows     int
	cells    [][]int32
	pos      []Point
	occupied []int32
}

func newRefGrid(area Rect, cell float64, n int) *refGrid {
	cols := int(area.W()/cell) + 1
	rows := int(area.H()/cell) + 1
	if cols < 1 {
		cols = 1
	}
	if rows < 1 {
		rows = 1
	}
	return &refGrid{
		area:  area,
		cell:  cell,
		cols:  cols,
		rows:  rows,
		cells: make([][]int32, cols*rows),
		pos:   make([]Point, n),
	}
}

func (g *refGrid) index(p Point) int {
	cx := int((p.X - g.area.Min.X) / g.cell)
	cy := int((p.Y - g.area.Min.Y) / g.cell)
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
	return cy*g.cols + cx
}

func (g *refGrid) reset() {
	for _, ci := range g.occupied {
		g.cells[ci] = g.cells[ci][:0]
	}
	g.occupied = g.occupied[:0]
}

func (g *refGrid) insert(id int32, p Point) {
	g.pos[id] = p
	ci := g.index(p)
	if len(g.cells[ci]) == 0 {
		g.occupied = append(g.occupied, int32(ci))
	}
	g.cells[ci] = append(g.cells[ci], id)
}

func (g *refGrid) Update(pos []Point) {
	g.reset()
	for id, p := range pos {
		g.insert(int32(id), p)
	}
}

func (g *refGrid) Pairs(radius float64, out [][2]int32) [][2]int32 {
	r2 := radius * radius
	for _, ciAny := range g.occupied {
		ci := int(ciAny)
		cx := ci % g.cols
		cy := ci / g.cols
		items := g.cells[ci]
		for i := 0; i < len(items); i++ {
			for j := i + 1; j < len(items); j++ {
				a, b := items[i], items[j]
				if g.pos[a].Dist2(g.pos[b]) <= r2 {
					out = appendPair(out, a, b)
				}
			}
		}
		for _, d := range [4][2]int{{1, 0}, {-1, 1}, {0, 1}, {1, 1}} {
			nx, ny := cx+d[0], cy+d[1]
			if nx < 0 || nx >= g.cols || ny >= g.rows {
				continue
			}
			other := g.cells[ny*g.cols+nx]
			for _, a := range items {
				for _, b := range other {
					if g.pos[a].Dist2(g.pos[b]) <= r2 {
						out = appendPair(out, a, b)
					}
				}
			}
		}
	}
	return out
}
