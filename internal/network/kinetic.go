package network

import (
	"fmt"
	"math"
	"sort"
)

// This file implements the kinetic planner, the planner for fleets of
// kineticFrom nodes and more: per-NODE parking where the lazy sweep
// (sweep.go) parks pairs, on the same parking core (park.go). Its state is
// O(n), ~53 bytes per node, where the sweep's per-pair arrays would need
// ~1.6 GB at n = 10000.
//
// A node is awake (sampled and checked against its 3×3 grid-bucket
// neighbourhood every tick) or parked until a wake tick; a parked node is
// neither sampled nor enumerated, but its pairs stay reachable because
// awake nodes see parked neighbours in the buckets. A node parks until the
// earliest tick anything about its neighbourhood could change, the minimum
// of:
//
//   - the cell deadline (cellTicks): the node provably stays inside its
//     assigned bucket, so its membership list stays truthful;
//   - for every non-linked node j in its 3×3 bucket neighbourhood, the
//     pair deadline (parking.pairTicks).
//
// Both deadlines are the later of the MaxSpeed motion bound and the leg
// certificate when the models report their legs (park.go).
//
// Exactness argument (byte-identity with scanNaive):
//
//   - Claim: every in-contact non-linked pair has at least one awake
//     endpoint on every tick where the contact predicate holds — so it is
//     checked and becomes an up candidate on exactly the naive schedule.
//     Suppose both endpoints were parked at tick t with the pair in range.
//     Take the later parker, j (parked at t_j ≤ t). If i sat in j's 3×3
//     neighbourhood at t_j, j's pair deadline bounds the pair out of range
//     through j's wake tick (> t) — contradiction. If i sat two or more
//     buckets away at t_j, both nodes stay strictly inside their assigned
//     buckets until their wakes (cell deadline), so their distance exceeds
//     one full cell edge ≥ the maximum radio range — contradiction.
//   - In-range pairs give a zero pair deadline, so both endpoints stay
//     awake and the pair is re-checked every tick: a churn-crashed or
//     energy-dead endpoint in distance range keeps the predicate false
//     without parking anything, so the reboot or re-charge re-ups the link
//     on the same tick the naive scanner would.
//   - Flap suppression clears on the same tick as the naive sweep: a
//     flapped pair's endpoints are awake from the teardown on (zero pair
//     deadline while in range), and the suppression is deleted by the
//     awake-side check on the first tick the predicate goes false — before
//     either endpoint can park (parking requires a positive distance gap,
//     which implies that same predicate-false check already ran).
//   - Every linkDown — scan separation, flap, churn crash — wakes both
//     endpoints; linked pairs are excluded from pair deadlines because the
//     per-tick down walk over Manager.live owns them.
//   - Ups: two or more are sorted into the exact naive grid-pass emission
//     order without rebuilding the grid (emitUps below): the planner's
//     buckets mirror geo.Grid's cell mapping (same Grid, same CellIndex
//     arithmetic), so the naive enumeration order — occupied cells in
//     ascending-min-id order, each visiting itself then its four forward
//     neighbours — is reconstructable from candidate cell coordinates
//     alone. This keeps multi-up ticks O(candidates·log) instead of O(n),
//     which matters at 100k nodes where some tick almost always has two
//     ups somewhere.
//
// Bucket membership lists are doubly linked, like the wake wheel, so cell
// moves unlink in O(1).

// upCand carries one up candidate's reconstructed grid-pass position: the
// generating cell's rank (its minimum bucketed node id — exactly the order
// geo.Grid.Update appends cells to its occupied list, since ids are
// inserted ascending), the enumeration phase (0 = within-cell, 1..4 = the
// forward neighbour directions E, SW, S, SE), and the iteration ids (a from
// the generating cell, b from the neighbour cell).
type upCand struct {
	key  pairKey
	rank int32
	dir  int8
	a, b int32
}

type kinetic struct {
	parking
	// cols/rows mirror Manager.grid's bucket geometry; cell assignment
	// always goes through grid.CellIndex so the two structures can never
	// disagree on a float-rounding decision.
	cols, rows int
	cellOf     []int32 // assigned bucket, -1 until the bootstrap tick assigns it
	// Bucket membership: one doubly-linked intrusive list per grid cell,
	// holding every node (awake or parked) assigned to it.
	cellHead []int32
	cnext    []int32
	cprev    []int32
	ord      []upCand
}

// newKinetic builds the planner with every node awake: the first tick
// assigns buckets and runs a full neighbourhood pass (equivalent to the
// naive bootstrap), parking everything physics allows. A fleet with
// unbounded MaxSpeed simply never parks, and the load monitor hands the run
// to scanNaive.
func newKinetic(m *Manager) *kinetic {
	n := len(m.hosts)
	cols, rows := m.grid.Dims()
	s := &kinetic{
		parking:  newParking(m, n),
		cols:     cols,
		rows:     rows,
		cellOf:   make([]int32, n),
		cellHead: make([]int32, cols*rows),
		cnext:    make([]int32, n),
		cprev:    make([]int32, n),
	}
	for ci := range s.cellHead {
		s.cellHead[ci] = -1
	}
	for i := range s.cellOf {
		s.cellOf[i] = -1
	}
	return s
}

func (s *kinetic) name() string { return "kinetic" }

// onLinkUp needs no bookkeeping: the neighbourhood check skips linked
// pairs through the Manager's adjacency lists.
func (s *kinetic) onLinkUp(pairKey) {}

// onLinkDown wakes both endpoints of a torn-down link.
func (s *kinetic) onLinkDown(k pairKey) {
	s.wakeNode(k[0])
	s.wakeNode(k[1])
}

// wakeNode returns a parked node to the awake set before its deadline. It
// is a no-op on awake nodes, so every teardown path may call it.
//
// Performance contract: O(1) list splices, no allocation.
func (s *kinetic) wakeNode(i int32) {
	if s.state[i] == itemParked {
		s.unpark(i)
	}
}

// moveCell reassigns node i to bucket ci, splicing its membership links.
//
// Performance contract: O(1) pointer splices, no allocation.
func (s *kinetic) moveCell(i int, ci int32) {
	if old := s.cellOf[i]; old >= 0 {
		if p := s.cprev[i]; p >= 0 {
			s.cnext[p] = s.cnext[i]
		} else {
			s.cellHead[old] = s.cnext[i]
		}
		if nx := s.cnext[i]; nx >= 0 {
			s.cprev[nx] = s.cprev[i]
		}
	}
	s.cellOf[i] = ci
	h := s.cellHead[ci]
	s.cnext[i] = h
	s.cprev[i] = -1
	if h >= 0 {
		s.cprev[h] = int32(i)
	}
	s.cellHead[ci] = int32(i)
}

// cellTicks bounds how many whole ticks node i provably stays inside its
// assigned bucket: the later of the motion bound (the distance to the
// bucket boundary, minus conservative slack dominating float rounding,
// under the node's own speed bound) and the leg certificate (the time the
// node's leg leaves the bucket box, geo.Grid.ExitTime, or, if the leg ends
// first, the leg end plus the motion bound from the leg's end point).
// Clamped out-of-area positions give a non-positive margin and keep the
// node awake.
//
// Performance contract: pure arithmetic, no allocation.
func (s *kinetic) cellTicks(i int) int64 {
	g, pos, ci := s.m.grid, s.m.positions[i], int(s.cellOf[i])
	d := g.BoundaryDist(pos, ci)
	k := s.boundTicks(d-(d*1e-9+1e-9), s.speed[i])
	if k >= maxParkTicks {
		return k
	}
	v, left, ok := s.legOf(i)
	if !ok {
		return k
	}
	tau := g.ExitTime(pos, v, ci)
	if tau >= left && left < math.Inf(1) {
		// Inside through the leg end; from there on only the bound.
		d := g.BoundaryDist(pos.Add(v.Scale(left)), ci)
		tau = left + (d-(d*1e-9+1e-9))/s.speed[i]
	}
	return max(k, s.ticksFor(tau))
}

// check reassigns every awake node's bucket, then scans each awake node's
// 3×3 bucket neighbourhood: it collects up candidates, clears flap
// suppression exactly where the naive sweep would (predicate false), and
// parks the node until its deadline.
func (s *kinetic) check(now float64) uint64 {
	m := s.m
	// Reassign before any neighbourhood is enumerated: a check must never
	// consult a stale assignment of an awake node (parked assignments are
	// truthful by the cell deadline).
	for _, ii := range s.active {
		i := int(ii)
		s.samplePos(i, now)
		if ci := int32(m.grid.CellIndex(m.positions[i])); ci != s.cellOf[i] {
			s.moveCell(i, ci)
		}
	}

	// The pair check is deduplicated — the lower-id endpoint owns it when
	// both are awake — and the loop index only advances when the node stays
	// awake (park swap-removes under it).
	checked := uint64(0)
	for idx := 0; idx < len(s.active); {
		i := int(s.active[idx])
		minK := s.cellTicks(i)
		ci := int(s.cellOf[i])
		cx, cy := ci%s.cols, ci/s.cols
		for dy := -1; dy <= 1; dy++ {
			ny := cy + dy
			if ny < 0 || ny >= s.rows {
				continue
			}
			for dx := -1; dx <= 1; dx++ {
				nx := cx + dx
				if nx < 0 || nx >= s.cols {
					continue
				}
				for j := s.cellHead[ny*s.cols+nx]; j != -1; j = s.cnext[j] {
					jj := int(j)
					if jj == i {
						continue
					}
					if len(m.adj[i]) > 0 && m.linkOf(keyOf(i, jj)) != nil {
						// The per-tick down walk over Manager.live owns
						// linked pairs; they never constrain a deadline.
						continue
					}
					s.samplePos(jj, now)
					checked++
					r := m.pairRange(i, jj)
					d2 := m.positions[i].Dist2(m.positions[jj])
					if s.state[j] == itemParked || jj > i {
						if m.energy.alive(i) && m.energy.alive(jj) &&
							!m.isDown(i) && !m.isDown(jj) && d2 <= r*r {
							k := keyOf(i, jj)
							if !m.flapped[k] {
								s.ups = append(s.ups, k)
							}
						} else if m.flapped != nil {
							delete(m.flapped, keyOf(i, jj))
						}
					}
					if K := s.pairTicks(i, jj, d2, r); K < minK {
						minK = K
					}
				}
			}
		}
		if minK >= 2 {
			s.park(int32(i), s.tick+minK)
		} else {
			idx++
		}
	}
	return checked
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

// minID returns the smallest node id bucketed in cell ci. Because
// geo.Grid.Update inserts ids in ascending order and appends a cell to its
// occupied list the first time an id lands in it, ascending min-id order IS
// the grid's cell visit order — which makes the rank reconstructable
// without building the grid.
func (s *kinetic) minID(ci int32) int32 {
	min := int32(math.MaxInt32)
	for j := s.cellHead[ci]; j != -1; j = s.cnext[j] {
		if j < min {
			min = j
		}
	}
	return min
}

// emitUps emits two-or-more up candidates in the exact order the naive grid
// pass would: cells in ascending-min-id (= occupied-list) order; within a
// cell, the within-cell phase then the four forward-neighbour phases; within
// a phase, lexicographic iteration ids. Candidate cells are identical to a
// freshly built grid's because every bucket assignment is truthful (awake
// nodes reassigned this tick, parked nodes pinned by their cell deadline)
// and computed by the same CellIndex arithmetic. It checks no pairs.
func (s *kinetic) emitUps(now float64) uint64 {
	m := s.m
	ord := s.ord[:0]
	for _, k := range s.ups {
		ca, cb := s.cellOf[k[0]], s.cellOf[k[1]]
		c := upCand{key: k, a: k[0], b: k[1]}
		if ca != cb {
			dx := int(cb)%s.cols - int(ca)%s.cols
			dy := int(cb)/s.cols - int(ca)/s.cols
			if d := fwdDir(dx, dy); d > 0 {
				c.dir = d
			} else if d := fwdDir(-dx, -dy); d > 0 {
				c.dir, c.a, c.b, ca = d, k[1], k[0], cb
			} else {
				//lint:invariant every up candidate comes from its endpoint's 3×3 bucket neighbourhood, and no bucket moves between check and emitUps, so the two cells are adjacent
				panic(fmt.Sprintf("network: up candidate %v spans non-adjacent buckets %d and %d", k, ca, cb))
			}
		}
		c.rank = s.minID(ca)
		ord = append(ord, c)
	}
	s.ord = ord
	sort.Slice(ord, func(x, y int) bool {
		if ord[x].rank != ord[y].rank {
			return ord[x].rank < ord[y].rank
		}
		if ord[x].dir != ord[y].dir {
			return ord[x].dir < ord[y].dir
		}
		if ord[x].a != ord[y].a {
			return ord[x].a < ord[y].a
		}
		return ord[x].b < ord[y].b
	})
	for _, c := range ord {
		if m.linkOf(c.key) == nil {
			m.linkUp(c.key, now)
		}
	}
	return 0
}
