package network

// This file implements the lazy sweep, the planner for fleets below
// kineticFrom: the ConnectivityOptimizer idea from the ONE simulator,
// rebuilt on the mobility.MaxSpeed contract, the mobility.Legged leg
// certificates and the parking core (park.go), whose items here are node
// pairs.
//
// Every unordered node pair is in exactly one of four states:
//
//   - near (itemAwake): checked every tick (it could plausibly transition).
//   - linked: a live link; the per-tick down check walks Manager.live.
//   - parked (itemParked): physics rules the pair out of radio range until
//     its wake tick (parking.pairTicks); it is neither distance-checked nor
//     grid-compared until then.
//   - retired: neither endpoint can move (closing speed 0) while the pair
//     is out of range — the distance never changes, so it is never
//     re-checked.
//
// Faults wake conservatively: every linkDown (scan, flap, churn) returns
// its pair to near; churned or energy-dead nodes make the predicate false
// but never justify parking on their own, so their pairs keep exact
// per-tick semantics while in distance range. A tick with two or more up
// candidates replays the naive up loop itself (full sample, grid rebuild,
// enumeration in grid order): the candidate sets provably coincide, so the
// emitted stream is the naive one by construction.
//
// Its state is O(n²), ~33 bytes per unordered pair, which is why larger
// fleets use the kinetic planner.

// Pair states beyond the parking core's awake (near) and parked.
const (
	pairLinked = itemParked + 1 + iota
	pairRetired
)

type sweep struct {
	parking
	// pairA/pairB invert pairIndex (built once; O(1) hot-path decode).
	pairA []int32
	pairB []int32
}

// newSweep builds the planner with every pair near: the first tick is a
// full O(n²) pass that parks everything physics allows.
func newSweep(m *Manager) *sweep {
	n := len(m.hosts)
	pairs := n * (n - 1) / 2
	s := &sweep{
		parking: newParking(m, pairs),
		pairA:   make([]int32, pairs),
		pairB:   make([]int32, pairs),
	}
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			p := s.pairIndex(a, b)
			s.pairA[p], s.pairB[p] = int32(a), int32(b)
		}
	}
	return s
}

func (s *sweep) name() string { return "lazy" }

// pairIndex maps an unordered pair (a<b) to its dense triangular index.
func (s *sweep) pairIndex(a, b int) int {
	return a*(2*s.n-a-1)/2 + (b - a - 1)
}

// pairNodes inverts pairIndex.
func (s *sweep) pairNodes(p int32) (int, int) {
	return int(s.pairA[p]), int(s.pairB[p])
}

// onLinkUp marks the pair linked; the down check walks Manager.live, so
// the pair leaves the near set.
func (s *sweep) onLinkUp(k pairKey) {
	p := int32(s.pairIndex(int(k[0]), int(k[1])))
	if s.state[p] == itemAwake {
		s.deactivate(p)
	}
	s.state[p] = pairLinked
}

// onLinkDown returns the pair to the near set, whatever tore the link
// down.
func (s *sweep) onLinkDown(k pairKey) {
	if p := int32(s.pairIndex(int(k[0]), int(k[1]))); s.state[p] == pairLinked {
		s.activate(p)
	}
}

// parkTicks returns how many whole ticks pair (a,b) at squared distance d2
// and effective range r is guaranteed to stay out of range, or -1 when the
// pair can never close (out of range with closing-speed bound zero). 0 or 1
// means the pair must stay near.
func (s *sweep) parkTicks(a, b int, d2, r float64) int64 {
	k := s.pairTicks(a, b, d2, r)
	if k > 0 && s.speed[a]+s.speed[b] <= 0 {
		return -1
	}
	return k
}

// check evaluates every near pair: it collects up candidates, parks or
// retires the provably far, and clears flap suppression exactly where the
// naive scan would (predicate false). The loop index only advances when
// the pair stays near — park and retire swap-remove under it.
func (s *sweep) check(now float64) uint64 {
	m := s.m
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
				s.ups = append(s.ups, k)
			}
			i++
			continue
		}
		if m.flapped != nil {
			delete(m.flapped, keyOf(a, b))
		}
		// Parking (and retiring) is justified by distance alone: a dead or
		// churned node at parking distance cannot reach range before the
		// wake tick regardless of its radio state.
		switch K := s.parkTicks(a, b, d2, r); {
		case K < 0:
			s.deactivate(p)
			s.state[p] = pairRetired
			s.skipping++
		case K >= 2:
			s.park(p, s.tick+K)
		default:
			i++
		}
	}
	return checked
}

// emitUps replays the naive up loop: sample everyone, then bring up every
// in-contact pair in grid order.
func (s *sweep) emitUps(now float64) uint64 {
	for i := range s.m.models {
		s.samplePos(i, now)
	}
	return uint64(s.m.gridUps(now))
}
