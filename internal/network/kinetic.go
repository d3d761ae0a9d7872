package network

import "math"

// This file implements the kinetic planner, the planner for fleets of
// kineticFrom nodes and more: it parks nodes on the parking core (park.go).
// Its state is O(n), ~57 bytes per node.
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
// Exactness argument (byte-identity with the naive scan):
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
//   - Flap suppression clears on the same tick as the naive scan: a
//     flapped pair's endpoints are awake from the teardown on (zero pair
//     deadline while in range), and the suppression is deleted by the
//     awake-side check on the first tick the predicate goes false — before
//     either endpoint can park (parking requires a positive distance gap,
//     which implies that same predicate-false check already ran).
//   - Every teardown — scan separation, flap, churn crash — wakes both
//     endpoints; linked pairs are excluded from pair deadlines because the
//     per-tick down walk over the scanner's up record owns them.
//   - Ups: two or more go through the scanner's one ordering routine
//     (scanner.emitOrdered, scan.go), which alone knows the naive emission
//     order: geo.Grid.Pairs' enumeration on the fine cells, reconstructed
//     from the candidates' cells and each cell's smallest id. The buckets
//     are those cells (same geo.Cells, same CellIndex arithmetic), so a
//     walk of one bucket gives its cell's rank, where the naive scan ranks
//     every cell in one pass over the nodes. This keeps multi-up ticks
//     O(candidates·log) instead of O(n), which matters at 100k nodes where
//     some tick almost always has two ups somewhere.
//
// Bucket membership lists are doubly linked, like the wake wheel, so cell
// moves unlink in O(1).

type kinetic struct {
	parking
	// cols/rows mirror the scanner's fine cells; cell assignment always
	// goes through their CellIndex, so the buckets and the up order can
	// never disagree on a float-rounding decision.
	cols, rows int
	cellOf     []int32 // assigned bucket, -1 until the bootstrap tick assigns it
	// Bucket membership: one doubly-linked intrusive list per grid cell,
	// holding every node (awake or parked) assigned to it.
	cellHead []int32
	cnext    []int32
	cprev    []int32
	// linked counts each node's up pairs, so the neighbourhood check asks
	// the up record only about nodes that have any.
	linked []int32
}

// newKinetic builds the planner with every node awake: the first tick
// assigns buckets and runs a full neighbourhood pass (equivalent to the
// naive bootstrap), parking everything physics allows. A fleet with
// unbounded MaxSpeed simply never parks, and the load monitor hands the run
// to the naive scan.
func newKinetic(sc *scanner) *kinetic {
	n := len(sc.models)
	cols, rows := sc.cells.Dims()
	s := &kinetic{
		parking:  newParking(sc),
		cols:     cols,
		rows:     rows,
		cellOf:   make([]int32, n),
		cellHead: make([]int32, cols*rows),
		cnext:    make([]int32, n),
		cprev:    make([]int32, n),
		linked:   make([]int32, n),
	}
	for ci := range s.cellHead {
		s.cellHead[ci] = -1
	}
	for i := range s.cellOf {
		s.cellOf[i] = -1
	}
	return s
}

// onLinkUp counts the pair at both endpoints; the neighbourhood check
// skips up pairs.
func (s *kinetic) onLinkUp(k pairKey) {
	s.linked[k[0]]++
	s.linked[k[1]]++
}

// onLinkDown uncounts the pair and wakes both endpoints.
func (s *kinetic) onLinkDown(k pairKey) {
	s.linked[k[0]]--
	s.linked[k[1]]--
	s.wakeNode(k[0])
	s.wakeNode(k[1])
}

// wakeNode returns a parked node to the awake set before its deadline. It
// is a no-op on awake nodes, so every teardown path may call it.
//
// Performance contract: O(1) list splices, no allocation.
func (s *kinetic) wakeNode(i int32) {
	if s.state[i] == nodeParked {
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
// node's leg leaves the bucket box, geo.Cells.ExitTime, or, if the leg ends
// first, the leg end plus the motion bound from the leg's end point).
// Clamped out-of-area positions give a non-positive margin and keep the
// node awake.
//
// Performance contract: pure arithmetic, no allocation.
func (s *kinetic) cellTicks(i int) int64 {
	g, pos, ci := &s.sc.cells, s.sc.positions[i], int(s.cellOf[i])
	d := g.BoundaryDist(pos, ci)
	k := boundTicks(d-(d*1e-9+1e-9), s.speed[i], s.interval)
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
	return max(k, ticksFor(tau, s.interval))
}

// check reassigns every awake node's bucket, then scans each awake node's
// 3×3 bucket neighbourhood: it collects up candidates, clears flap
// suppression exactly where the naive scan would (predicate false), and
// parks the node until its deadline.
func (s *kinetic) check(now float64) uint64 {
	sc := s.sc
	// Reassign before any neighbourhood is enumerated: a check must never
	// consult a stale assignment of an awake node (parked assignments are
	// truthful by the cell deadline).
	for _, ii := range s.active {
		i := int(ii)
		s.samplePos(i, now)
		if ci := int32(sc.cells.CellIndex(sc.positions[i])); ci != s.cellOf[i] {
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
					if s.linked[i] > 0 && sc.isUp(keyOf(i, jj)) {
						// The per-tick down walk over the up record owns
						// linked pairs; they never constrain a deadline.
						continue
					}
					s.samplePos(jj, now)
					checked++
					r := sc.pairRange(i, jj)
					d2 := sc.positions[i].Dist2(sc.positions[jj])
					if s.state[j] == nodeParked || jj > i {
						if sc.radioOn(i) && sc.radioOn(jj) && d2 <= r*r {
							k := keyOf(i, jj)
							if !sc.flapped[k] {
								sc.cands = append(sc.cands, k)
							}
						} else if sc.flapped != nil {
							delete(sc.flapped, keyOf(i, jj))
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

// minID returns the smallest node id bucketed in cell ci, the cell's rank
// in the naive emission order.
func (s *kinetic) minID(ci int32) int32 {
	min := int32(math.MaxInt32)
	for j := s.cellHead[ci]; j != -1; j = s.cnext[j] {
		if j < min {
			min = j
		}
	}
	return min
}

// emitUps brings up two or more up candidates in the naive emission order
// (scanner.emitOrdered), ranking each cell by a walk of its bucket. The
// buckets hold exactly the nodes a freshly built grid would put in each
// cell, because every assignment is truthful (awake nodes reassigned this
// tick, parked nodes pinned by their cell deadline) and computed by the
// same CellIndex arithmetic. It checks no pairs.
func (s *kinetic) emitUps() {
	s.sc.emitOrdered(s.minID)
}
