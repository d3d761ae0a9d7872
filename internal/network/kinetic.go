package network

import (
	"math"
	"sort"

	"sdsrp/internal/geo"
)

// This file implements the kinetic grid-bucketed scan planner (Config.Scan =
// ScanKinetic): per-NODE parking state where the lazy sweep (sweep.go) keeps
// per-PAIR state. The six triangular O(n²) arrays become a handful of O(n)
// ones (~45 bytes per node), which is what makes 100k–1M node fleets
// representable at all — the lazy planner's int32 pair index overflows at
// n = 65536 and its arrays would need ~1.4 GB at n = 10000.
//
// Every node is in one of two states:
//
//   - awake:  sampled and checked against its 3×3 grid-bucket neighbourhood
//     every tick.
//   - parked: physics rules the node irrelevant until a computed wake tick;
//     it sits in a tick-bucketed wake wheel and is neither sampled nor
//     enumerated until then (its pairs are still reachable: awake nodes see
//     parked neighbours in the buckets).
//
// A node i parks until the earliest tick anything about its neighbourhood
// could change, the minimum of:
//
//   - the cell deadline floor((d_edge − slack) / (MaxSpeed(i)·interval)):
//     with d_edge the distance from i's position to its assigned bucket's
//     boundary, i provably stays inside that bucket (so its membership list
//     stays truthful) for that many whole ticks;
//   - for every non-linked node j in i's 3×3 bucket neighbourhood, the pair
//     deadline floor((d_lo − r) / ((MaxSpeed(i)+MaxSpeed(j))·interval)) —
//     the sweep's motion bound, applied with the pair's combined closing
//     speed (d_lo = geo.DistLowerBound of the measured distance, r the
//     pair's effective range).
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
//     awake and the pair is re-checked every tick. This reproduces the
//     naive per-tick semantics for radio-state transitions exactly: a
//     churn-crashed or energy-dead endpoint in distance range keeps the
//     predicate false without parking anything, so the reboot or re-charge
//     re-ups the link on the same tick the naive scanner would.
//   - Flap suppression clears on the same tick as the naive sweep: a
//     flapped pair's endpoints are awake from the teardown on (zero pair
//     deadline while in range), and the suppression is deleted by the
//     awake-side check on the first tick the predicate goes false — before
//     either endpoint can park (parking requires a positive distance gap,
//     which implies that same predicate-false check already ran).
//   - Every linkDown — scan separation, flap, churn crash — wakes both
//     endpoints (onLinkDown), the same conservative discipline the sweep
//     applies to pairs; linked pairs are excluded from pair deadlines
//     because the per-tick down walk over Manager.live owns them.
//   - Downs derive from Manager.live exactly like the naive path, in key
//     order. Position sampling is lazy but Model.Pos is
//     deterministic for a given query time, so sampled values are
//     bit-identical to the naive schedule.
//   - Ups: zero or one candidate needs no ordering. Two or more are sorted
//     into the exact naive grid-pass emission order without rebuilding the
//     grid (emitUps below): the planner's buckets mirror geo.Grid's cell
//     mapping (same Grid, same CellIndex arithmetic), so the naive
//     enumeration order — occupied cells in ascending-min-id order, each
//     visiting itself then its four forward neighbours — is reconstructable
//     from candidate cell coordinates alone. This keeps multi-up ticks
//     O(candidates·log) instead of O(n), which matters at 100k nodes where
//     some tick almost always has two ups somewhere.
//
// The wake wheel is the sweep's tick-hashed design, but doubly linked:
// link-down wakes must unlink a parked node mid-bucket in O(1), and a
// re-park may carry an earlier deadline than a stale entry would pop at, so
// lazy deletion is not safe here. Bucket membership lists are doubly linked
// for the same reason (cell moves unlink in O(1)).
//
// Like the sweep, the planner watches its own load (loadWindow): workloads
// whose awake set sustains more neighbour checks per tick than there are
// nodes pay more for bookkeeping than naive's flat per-node pass, and the
// planner retires itself — deterministically, and unobservably in the
// event stream — for the rest of the run.

// Node-state codes. Awake nodes live in the active slice; parked nodes in
// the wake wheel.
const (
	kinAwake uint8 = iota
	kinParked
)

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
	m *Manager
	n int
	// tick counts Scan calls; the first call is tick 1. Wake deadlines are
	// absolute ticks.
	tick     int64
	interval float64
	// speed[i] is models[i].MaxSpeed(), read once at construction (the
	// contract requires it to be constant).
	speed []float64
	// cols/rows mirror Manager.grid's bucket geometry; cell assignment
	// always goes through grid.CellIndex so the two structures can never
	// disagree on a float-rounding decision.
	cols, rows int

	state  []uint8
	wake   []int64 // absolute wake tick, valid while state == kinParked
	cellOf []int32 // assigned bucket, -1 until the bootstrap tick assigns it

	// The wake wheel: one doubly-linked intrusive list per tick bucket.
	wheelHead [wheelBuckets]int32
	wnext     []int32
	wprev     []int32

	// Bucket membership: one doubly-linked intrusive list per grid cell,
	// holding every node (awake or parked) assigned to it.
	cellHead []int32
	cnext    []int32
	cprev    []int32

	// active holds the awake nodes; slot[i] is i's position in it (-1 when
	// parked). Swap-removal keeps both O(1); iteration order is internal
	// only — every emission below is canonically ordered.
	active []int32
	slot   []int32

	// posTick stamps the tick each node's position was last sampled, so a
	// node read by several neighbourhoods moves once per tick.
	posTick []int64
	parked  int64 // nodes currently parked, for the skip counter
	ups     []pairKey
	ord     []upCand
	// windowChecked accumulates neighbour checks toward the loadWindow
	// retirement decision.
	windowChecked uint64
}

// newKinetic builds the planner with every node awake: the first tick
// assigns buckets and runs a full neighbourhood pass (equivalent to the
// naive bootstrap), parking everything physics allows. Unlike newSweep
// there is no size ceiling — state is O(n) — and no refusal: a fleet with
// unbounded MaxSpeed simply never parks and the load monitor hands the run
// to scanNaive.
func newKinetic(m *Manager) *kinetic {
	n := len(m.hosts)
	cols, rows := m.grid.Dims()
	s := &kinetic{
		m:        m,
		n:        n,
		interval: m.cfg.ScanInterval,
		speed:    make([]float64, n),
		cols:     cols,
		rows:     rows,
		state:    make([]uint8, n),
		wake:     make([]int64, n),
		cellOf:   make([]int32, n),
		wnext:    make([]int32, n),
		wprev:    make([]int32, n),
		cellHead: make([]int32, cols*rows),
		cnext:    make([]int32, n),
		cprev:    make([]int32, n),
		active:   make([]int32, 0, n),
		slot:     make([]int32, n),
		posTick:  make([]int64, n),
	}
	for b := range s.wheelHead {
		s.wheelHead[b] = -1
	}
	for ci := range s.cellHead {
		s.cellHead[ci] = -1
	}
	for i, model := range m.models {
		s.speed[i] = model.MaxSpeed()
		s.cellOf[i] = -1
		s.slot[i] = int32(i)
		s.active = append(s.active, int32(i))
	}
	return s
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

// activate moves node i into the awake set.
func (s *kinetic) activate(i int32) {
	s.state[i] = kinAwake
	s.slot[i] = int32(len(s.active))
	s.active = append(s.active, i)
}

// deactivate swap-removes node i from the awake set.
func (s *kinetic) deactivate(i int32) {
	p := s.slot[i]
	last := int32(len(s.active) - 1)
	moved := s.active[last]
	s.active[p] = moved
	s.slot[moved] = p
	s.active = s.active[:last]
	s.slot[i] = -1
}

// park moves awake node i into the wheel until the absolute tick wakeAt.
//
// Performance contract: O(1) list splices, no allocation.
func (s *kinetic) park(i int32, wakeAt int64) {
	s.deactivate(i)
	s.state[i] = kinParked
	s.wake[i] = wakeAt
	b := wakeAt & (wheelBuckets - 1)
	h := s.wheelHead[b]
	s.wnext[i] = h
	s.wprev[i] = -1
	if h >= 0 {
		s.wprev[h] = i
	}
	s.wheelHead[b] = i
	s.parked++
}

// wakeNode returns a parked node to the awake set before its deadline,
// unlinking it from its wheel bucket in place. No-op on awake nodes, so
// every teardown path may call it unconditionally.
//
// Performance contract: O(1) list splices, no allocation.
func (s *kinetic) wakeNode(i int32) {
	if s.state[i] != kinParked {
		return
	}
	b := s.wake[i] & (wheelBuckets - 1)
	if p := s.wprev[i]; p >= 0 {
		s.wnext[p] = s.wnext[i]
	} else {
		s.wheelHead[b] = s.wnext[i]
	}
	if nx := s.wnext[i]; nx >= 0 {
		s.wprev[nx] = s.wprev[i]
	}
	s.parked--
	s.activate(i)
}

// onLinkDown conservatively wakes both endpoints of a torn-down link,
// whatever tore it down (scan separation, flap, churn crash) — the per-node
// equivalent of the sweep's return-to-near discipline. The woken nodes
// re-park next tick if their neighbourhoods are genuinely quiet.
func (s *kinetic) onLinkDown(k pairKey) {
	s.wakeNode(k[0])
	s.wakeNode(k[1])
}

// cellTicks bounds how many whole ticks node i provably stays inside its
// assigned bucket: the distance to the bucket boundary, minus conservative
// slack dominating float rounding, over the node's speed bound. Clamped
// out-of-area positions give a non-positive margin and keep the node awake.
//
// Performance contract: pure arithmetic, no allocation.
func (s *kinetic) cellTicks(i int) int64 {
	d := s.m.grid.BoundaryDist(s.m.positions[i], int(s.cellOf[i]))
	d -= d*1e-9 + 1e-9
	if d <= 0 {
		return 0
	}
	c := s.speed[i]
	if c <= 0 {
		return maxParkTicks
	}
	k := d / (c * s.interval)
	if !(k < maxParkTicks) { // catches NaN too, though c and d are finite
		return maxParkTicks
	}
	return int64(k)
}

// pairTicks is the sweep's motion bound for pair (i,j) at squared distance
// d2 and effective range r: whole ticks the pair provably stays out of
// range. 0 means the pair pins both endpoints awake; an out-of-range pair
// with closing-speed bound zero cannot constrain the deadline at all.
//
// Performance contract: pure arithmetic, no allocation.
func (s *kinetic) pairTicks(i, j int, d2, r float64) int64 {
	gap := geo.DistLowerBound(d2) - r
	if gap <= 0 {
		// In (or at) radio range: both endpoints stay awake regardless of
		// speeds, preserving naive per-tick semantics for churned or
		// energy-dead endpoints (see the file comment).
		return 0
	}
	c := s.speed[i] + s.speed[j]
	if c <= 0 {
		return maxParkTicks
	}
	k := gap / (c * s.interval) // c = +Inf (teleporting model) gives 0
	if !(k < maxParkTicks) {
		return maxParkTicks
	}
	return int64(k)
}

// samplePos samples node i's position once per tick.
func (s *kinetic) samplePos(i int, now float64) {
	if s.posTick[i] != s.tick {
		s.m.positions[i] = s.m.models[i].Pos(now)
		s.posTick[i] = s.tick
	}
}

// scanKinetic is the kinetic counterpart of scanNaive; the emitted event
// stream is byte-identical (see the file comment for the argument).
func (m *Manager) scanKinetic(now float64) {
	s := m.kin
	s.tick++

	// 1. Wake nodes whose deadline arrived. Entries parked a lap or more
	// ahead stay with one comparison; prev links are patched through the
	// same head pointer walk the sweep's wheel uses.
	for pp := &s.wheelHead[s.tick&(wheelBuckets-1)]; *pp != -1; {
		i := *pp
		if s.wake[i] <= s.tick {
			*pp = s.wnext[i]
			if nx := s.wnext[i]; nx >= 0 {
				s.wprev[nx] = s.wprev[i]
			}
			s.parked--
			s.activate(i)
			m.wakeups++
		} else {
			pp = &s.wnext[i]
		}
	}

	// 2. Reassign every awake node's bucket from its current position,
	// before any neighbourhood is enumerated: a check must never consult a
	// stale assignment of an awake node (parked assignments are truthful by
	// the cell deadline). Assignment goes through the Manager grid's own
	// CellIndex so the bucket geometry is bit-exact with the naive pass.
	for _, ii := range s.active {
		i := int(ii)
		s.samplePos(i, now)
		if ci := int32(m.grid.CellIndex(m.positions[i])); ci != s.cellOf[i] {
			s.moveCell(i, ci)
		}
	}

	// 3. Each awake node scans its 3×3 bucket neighbourhood: collect up
	// candidates, clear flap suppression exactly where the naive sweep
	// would (predicate false), and compute the node's park deadline. The
	// pair check is deduplicated — the lower-id endpoint owns it when both
	// are awake — and the loop index only advances when the node stays
	// awake (park swap-removes under it).
	s.ups = s.ups[:0]
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
					if s.state[j] == kinParked || jj > i {
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
	if s.tick > 1 {
		s.windowChecked += checked
	}

	// 4. Downs, exactly like the naive path: recompute the predicate per
	// live link, canonical sort, teardown with deferred kicks. linkDown
	// wakes both endpoints via onLinkDown.
	for _, l := range m.live {
		s.samplePos(int(l.key[0]), now)
		s.samplePos(int(l.key[1]), now)
	}
	checked += uint64(len(m.live))
	freed := m.freedBuf[:0]
	for _, l := range m.collectDowns() {
		freed = m.linkDown(l, now, freed)
	}

	// 5. Ups. One candidate needs no ordering; two or more are sorted into
	// the naive grid-pass order from the bucket structure alone.
	switch len(s.ups) {
	case 0:
	case 1:
		if m.linkOf(s.ups[0]) == nil {
			m.linkUp(s.ups[0], now)
		}
	default:
		s.emitUps(now)
	}

	m.pairsChecked += checked
	m.pairsSkipped += uint64(s.parked)
	m.finishScan(freed, now)

	// 6. Self-monitoring retirement, the sweep's loadWindow policy: when
	// the awake set sustains more neighbour checks per tick than there are
	// nodes, parking is not paying — hand the run to scanNaive for good.
	// The trigger reads only simulated state, so it is deterministic, and
	// byte-identity makes the switch unobservable. The bootstrap tick (a
	// full neighbourhood pass by design) is excluded from the first window.
	if s.tick%loadWindow == 0 {
		if s.windowChecked > loadWindow*uint64(s.n) {
			m.kin = nil
			m.noteFallback("kinetic:load-monitor->naive")
		}
		s.windowChecked = 0
	}
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
// and computed by the same CellIndex arithmetic.
func (s *kinetic) emitUps(now float64) {
	m := s.m
	ord := s.ord[:0]
	ok := true
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
				ok = false
				break
			}
		}
		c.rank = s.minID(ca)
		ord = append(ord, c)
	}
	s.ord = ord
	if !ok {
		// Safety valve: an in-range pair spanning non-adjacent buckets
		// would mean the cell size dropped below the radio range — kept
		// impossible by NewManager's validation. Replay the naive pass,
		// which is correct by construction, rather than guessing an order.
		s.replayNaiveUps(now)
		return
	}
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
}

// replayNaiveUps is the sweep's multi-up fallback: sample everyone, then
// emit ups in grid order. Kept only as emitUps's safety valve.
func (s *kinetic) replayNaiveUps(now float64) {
	m := s.m
	for i := range m.models {
		s.samplePos(i, now)
	}
	m.pairsChecked += uint64(m.gridUps(now))
}
