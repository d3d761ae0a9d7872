package network

import (
	"sdsrp/internal/geo"
)

// This file implements the motion-bounded lazy scan planner (Config.Scan =
// ScanLazy, the default): the ConnectivityOptimizer idea from the ONE
// simulator, rebuilt on the mobility.MaxSpeed contract.
//
// Every unordered node pair is in exactly one of four states:
//
//   - near:   checked every tick (it could plausibly transition).
//   - linked: a live link; the per-tick down check walks Manager.live.
//   - parked: physics rules the pair out of radio range until a computed
//     wake tick; it sits in a tick-bucketed wake wheel and is neither
//     distance-checked nor grid-compared until then.
//   - retired: neither endpoint can move (closing speed 0) while the pair
//     is out of range — the distance never changes, so it is never
//     re-checked.
//
// A pair at measured distance d with effective range r and closing-speed
// bound c = MaxSpeed(a) + MaxSpeed(b) cannot be in range before d−r metres
// close, i.e. for K = floor((d_lo − r) / (c·interval)) whole ticks, where
// d_lo is a conservative lower bound on d (geo.DistLowerBound). Skipping
// ticks T+1..T+K−1 leaves a margin of at least one full tick of closing
// (c·interval) plus the d−d_lo slack, which dominates every float-rounding
// step in the chain (position interpolation, the distance square root, and
// the engine's accumulated tick times). Pairs only park when K ≥ 2 — a
// one-tick park costs wheel traffic without skipping anything.
//
// Byte-identity with the naive scanner:
//
//   - The predicate (Manager.pairInContact) is the same code and the same
//     float comparisons; position sampling is lazy but Model.Pos is
//     deterministic for a given query time regardless of intermediate
//     queries, so sampled values are bit-identical to the naive schedule.
//   - Downs derive from Manager.live exactly like the naive path and are
//     emitted in key order — canonical, so trivially identical.
//   - Ups: a tick with zero or one new link needs no ordering. A tick with
//     two or more falls back to the naive up loop itself (full sample, grid
//     rebuild, enumeration in grid order) — the candidate sets provably
//     coincide, so the emitted stream is the naive one by construction.
//   - Faults wake conservatively: every linkDown (scan, flap, churn)
//     returns its pair to near; churned or energy-dead nodes make the
//     predicate false but never justify parking on their own, so their
//     pairs keep exact per-tick semantics while in distance range.
//
// The wheel is hashed: bucket = tick mod wheelBuckets. An entry whose wake
// tick lies a lap or more ahead is re-kept with one comparison when its
// bucket comes around.
//
// Workloads where most pairs close fast (many fast movers, short park
// deadlines) can wake pairs so often that per-pair bookkeeping costs more
// than the naive per-node sampling pass. The planner watches its own load
// (loadWindow below) and permanently hands the run back to scanNaive when
// that happens — byte-identity makes the switch unobservable, and the
// trigger reads only simulated state, so it is deterministic.

const (
	// wheelBuckets must be a power of two (bucket index is masked).
	wheelBuckets = 256
	// maxParkTicks caps a park so that the accumulated float error of
	// tick-time addition stays far inside the deadline margin; a pair
	// re-checked once every million ticks is already free.
	maxParkTicks = 1_000_000
	// loadWindow is the self-monitoring window (in ticks) for the naive
	// fallback: if a window's near-set checks exceed loadWindow·n — i.e.
	// the planner distance-checks more pairs per tick than there are nodes
	// — per-pair waking costs more than naive's per-node sample + grid
	// pass, and the planner retires itself for the rest of the run. The
	// trigger depends only on simulated state, so it is deterministic, and
	// both strategies emit byte-identical streams, so switching mid-run is
	// unobservable. The bootstrap tick (a full O(n²) pass by design) is
	// excluded from the first window.
	loadWindow = 64
)

// Pair-state codes. near pairs live in the active slice; parked pairs in
// the wheel; linked pairs are tracked by Manager.live; retired pairs are
// nowhere.
const (
	sweepNear uint8 = iota
	sweepLinked
	sweepParked
	sweepRetired
)

type sweep struct {
	m *Manager
	n int
	// tick counts Scan calls; the first call is tick 1. Wake deadlines are
	// absolute ticks.
	tick     int64
	interval float64
	// speed[i] is models[i].MaxSpeed(), read once at construction (the
	// contract requires it to be constant).
	speed []float64

	state []uint8 // per pair index
	wake  []int64 // absolute wake tick, valid while state == sweepParked
	// pairA/pairB invert pairIndex (built once; O(1) hot-path decode).
	pairA []int32
	pairB []int32
	// active holds the near pairs; slot[p] is p's position in it (-1 when
	// not active). Swap-removal keeps both O(1); iteration order is
	// internal only — every emission below is canonically ordered.
	active []int32
	slot   []int32
	// The wheel is an intrusive singly-linked list per bucket: wheelHead[b]
	// is the first parked pair in bucket b (-1 when empty) and next[p]
	// chains parked pairs. Parking pushes onto the head and waking unlinks
	// in place, so the wheel never allocates after construction.
	wheelHead [wheelBuckets]int32
	next      []int32

	// posTick stamps the tick each node's position was last sampled, so a
	// node shared by several near pairs moves once per tick.
	posTick []int64
	parked  int64 // pairs currently parked or retired, for the skip counter
	ups     []pairKey
	// windowChecked accumulates near-set checks toward the loadWindow
	// fallback decision.
	windowChecked uint64
}

// newSweep builds the planner with every non-linked pair near: the first
// tick is a full O(n²) pass that parks everything physics allows. It
// returns nil — falling the run back to the kinetic planner — at n ≥ 65536:
// the triangular pair index would overflow the int32 bookkeeping one node
// later (the check is on n, not the pair count, because at exactly 65536
// nodes the ~2.1 G pairs still "fit" int32 while the six per-pair arrays
// would ask for ~78 GB), and the kinetic scanner's O(n) state is the right
// tool well before that.
func newSweep(m *Manager) *sweep {
	n := len(m.hosts)
	if n >= 65536 {
		return nil
	}
	pairs := n * (n - 1) / 2
	s := &sweep{
		m:        m,
		n:        n,
		interval: m.cfg.ScanInterval,
		speed:    make([]float64, n),
		state:    make([]uint8, pairs),
		wake:     make([]int64, pairs),
		active:   make([]int32, 0, pairs),
		slot:     make([]int32, pairs),
		next:     make([]int32, pairs),
		posTick:  make([]int64, n),
	}
	for b := range s.wheelHead {
		s.wheelHead[b] = -1
	}
	for i, model := range m.models {
		s.speed[i] = model.MaxSpeed()
	}
	s.pairA = make([]int32, pairs)
	s.pairB = make([]int32, pairs)
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			p := s.pairIndex(a, b)
			s.pairA[p], s.pairB[p] = int32(a), int32(b)
		}
	}
	for p := 0; p < pairs; p++ {
		s.slot[p] = int32(len(s.active))
		s.active = append(s.active, int32(p))
	}
	return s
}

// pairIndex maps an unordered pair (a<b) to its dense triangular index.
func (s *sweep) pairIndex(a, b int) int {
	return a*(2*s.n-a-1)/2 + (b - a - 1)
}

// pairNodes inverts pairIndex.
func (s *sweep) pairNodes(p int32) (int, int) {
	return int(s.pairA[p]), int(s.pairB[p])
}

// activate moves pair p into the near set.
func (s *sweep) activate(p int32) {
	s.state[p] = sweepNear
	s.slot[p] = int32(len(s.active))
	s.active = append(s.active, p)
}

// deactivate swap-removes pair p from the near set.
func (s *sweep) deactivate(p int32) {
	i := s.slot[p]
	last := int32(len(s.active) - 1)
	moved := s.active[last]
	s.active[i] = moved
	s.slot[moved] = i
	s.active = s.active[:last]
	s.slot[p] = -1
}

// onLinkUp marks the pair linked; the down check walks Manager.live, so
// the pair leaves the near set.
func (s *sweep) onLinkUp(k pairKey) {
	p := int32(s.pairIndex(int(k[0]), int(k[1])))
	if s.state[p] == sweepNear {
		s.deactivate(p)
	}
	s.state[p] = sweepLinked
}

// onLinkDown conservatively returns the pair to the near set, whatever tore
// the link down. The next tick re-parks it if it is genuinely far.
func (s *sweep) onLinkDown(k pairKey) {
	p := int32(s.pairIndex(int(k[0]), int(k[1])))
	if s.state[p] != sweepLinked {
		return // scheduled-mode replay can down a pair the planner never saw up
	}
	s.activate(p)
}

// park moves near pair p into the wheel until the absolute tick wakeAt.
func (s *sweep) park(p int32, wakeAt int64) {
	s.deactivate(p)
	s.state[p] = sweepParked
	s.wake[p] = wakeAt
	b := wakeAt & (wheelBuckets - 1)
	s.next[p] = s.wheelHead[b]
	s.wheelHead[b] = p
	s.parked++
}

// retire removes near pair p permanently: closing speed is zero while the
// pair is out of range, so its distance can never change.
func (s *sweep) retire(p int32) {
	s.deactivate(p)
	s.state[p] = sweepRetired
	s.parked++
}

// parkTicks returns how many whole ticks pair (a,b) at squared distance d2
// and effective range r is guaranteed to stay out of range, or -1 when the
// pair can never close (out of range with closing-speed bound zero). 0 or 1
// means the pair must stay near.
func (s *sweep) parkTicks(a, b int, d2, r float64) int64 {
	gap := geo.DistLowerBound(d2) - r
	if gap <= 0 {
		// In (or at) radio range: the pair stays near regardless of speeds.
		// The caller reaches here with the contact predicate false when an
		// endpoint is churn-downed or energy-dead; distance did not rule the
		// pair out, so retiring a static-static pair here would make the
		// endpoint's reboot unobservable (nothing wakes a retired pair) and
		// diverge from the naive scanner, which re-ups the link.
		return 0
	}
	c := s.speed[a] + s.speed[b]
	if c <= 0 {
		return -1
	}
	k := gap / (c * s.interval) // c = +Inf (teleporting model) gives 0
	if !(k < maxParkTicks) {    // catches NaN too, though c and gap are finite
		return maxParkTicks
	}
	return int64(k)
}

// samplePos samples node i's position once per tick.
func (s *sweep) samplePos(i int, now float64) {
	if s.posTick[i] != s.tick {
		s.m.positions[i] = s.m.models[i].Pos(now)
		s.posTick[i] = s.tick
	}
}

// scanLazy is the lazy counterpart of scanNaive; the emitted event stream
// is byte-identical (see the file comment for the argument).
func (m *Manager) scanLazy(now float64) {
	s := m.sweep
	s.tick++

	// 1. Wake pairs whose deadline arrived: unlink them from the bucket's
	// intrusive list. Entries parked a lap or more ahead stay with one
	// comparison.
	for pp := &s.wheelHead[s.tick&(wheelBuckets-1)]; *pp != -1; {
		p := *pp
		if s.wake[p] <= s.tick {
			*pp = s.next[p]
			s.activate(p)
			s.parked--
			m.wakeups++
		} else {
			pp = &s.next[p]
		}
	}

	// 2. Check every near pair: collect up candidates, park or retire the
	// provably-far, and clear flap suppression exactly where the naive
	// flapped sweep would (predicate false). The loop index only advances
	// when the pair stays near — park/retire swap-remove under it.
	ups := s.ups[:0]
	checked := uint64(0)
	for i := 0; i < len(s.active); {
		p := s.active[i]
		a, b := s.pairNodes(p)
		s.samplePos(a, now)
		s.samplePos(b, now)
		checked++
		r := m.pairRange(a, b)
		d2 := m.positions[a].Dist2(m.positions[b])
		alive := m.energy.alive(a) && m.energy.alive(b) &&
			!m.isDown(a) && !m.isDown(b)
		if alive && d2 <= r*r {
			k := keyOf(a, b)
			if !m.flapped[k] {
				ups = append(ups, k)
			}
			i++
			continue
		}
		if m.flapped != nil {
			delete(m.flapped, keyOf(a, b))
		}
		// Parking (and retiring) is justified by distance alone: a dead or
		// churned node at parking distance cannot reach range before the
		// wake tick regardless of its radio state. In-range pairs whose
		// predicate failed for radio-state reasons get K = 0 and stay near.
		switch K := s.parkTicks(a, b, d2, r); {
		case K < 0:
			s.retire(p)
		case K >= 2:
			s.park(p, s.tick+K)
		default:
			i++
		}
	}
	if s.tick > 1 {
		s.windowChecked += checked
	}

	// 3. Downs, exactly like the naive path: recompute the predicate per
	// live link, canonical sort, teardown with deferred kicks.
	for _, l := range m.live {
		s.samplePos(int(l.key[0]), now)
		s.samplePos(int(l.key[1]), now)
	}
	checked += uint64(len(m.live))
	freed := m.freedBuf[:0]
	for _, l := range m.collectDowns() {
		freed = m.linkDown(l, now, freed)
	}

	// 4. Ups. One candidate needs no ordering; two or more replay the
	// naive up loop itself so the emission order is the grid enumeration
	// order, byte for byte.
	switch len(ups) {
	case 0:
	case 1:
		if m.linkOf(ups[0]) == nil {
			m.linkUp(ups[0], now)
		}
	default:
		for i := range m.models {
			s.samplePos(i, now)
		}
		checked += uint64(m.gridUps(now))
	}
	s.ups = ups[:0]

	m.pairsChecked += checked
	m.pairsSkipped += uint64(s.parked)
	m.finishScan(freed, now)

	// 5. Self-monitoring fallback: when the near set sustains more checks
	// per tick than naive's per-node sampling pass, parking is not paying —
	// retire the planner and let Scan dispatch to scanNaive from the next
	// tick on. See the loadWindow comment for why this is deterministic and
	// stream-preserving.
	if s.tick%loadWindow == 0 {
		if s.windowChecked > loadWindow*uint64(s.n) {
			m.sweep = nil
			m.noteFallback("lazy:load-monitor->naive")
		}
		s.windowChecked = 0
	}
}
