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
//   - linked: an up pair; the per-tick down check walks the scanner's up
//     record.
//   - parked (itemParked): physics rules the pair out of radio range until
//     its wake tick (parking.pairTicks); it is neither distance-checked nor
//     grid-compared until then.
//   - retired: neither endpoint can move (closing speed 0) while the pair
//     is out of range — the distance never changes, so it is never
//     re-checked.
//
// Faults wake conservatively: every teardown (scan, flap, churn) returns
// its pair to near; churned or energy-dead nodes make the predicate false
// but never justify parking on their own, so their pairs keep exact
// per-tick semantics while in distance range. A tick with two or more up
// candidates samples every node and emits them through the scanner's one
// ordering routine, ranking cells in one pass over the nodes
// (scanner.emitRanked), as the naive scan does.
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
	// near counts the tick's checked pairs within the largest range, for
	// emitUps.
	near uint64
}

// newSweep builds the planner with every pair near: the first tick is a
// full O(n²) pass that parks everything physics allows.
func newSweep(sc *scanner) *sweep {
	n := len(sc.models)
	pairs := n * (n - 1) / 2
	s := &sweep{
		parking: newParking(sc, pairs),
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

// onLinkUp marks the pair linked; the down check walks the up record, so
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
	sc := s.sc
	checked := uint64(0)
	s.near = 0
	reach2 := sc.maxRange * sc.maxRange
	for i := 0; i < len(s.active); {
		p := s.active[i]
		a, b := s.pairNodes(p)
		s.samplePos(a, now)
		s.samplePos(b, now)
		checked++
		r := sc.pairRange(a, b)
		d2 := sc.positions[a].Dist2(sc.positions[b])
		if d2 <= reach2 {
			s.near++
		}
		if sc.radioOn(a) && sc.radioOn(b) && d2 <= r*r {
			k := keyOf(a, b)
			if !sc.flapped[k] {
				sc.cands = append(sc.cands, k)
			}
			i++
			continue
		}
		if sc.flapped != nil {
			delete(sc.flapped, keyOf(a, b))
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

// emitUps samples every node and brings the candidates up in the naive
// emission order. It counts as checked what the naive scan checks on this
// tick, every pair within the largest range: the near pairs check counted,
// the up pairs and this tick's downs within it. Parked and retired pairs
// are out of their own range, which is the largest unless ranges differ
// per node; there, those between their own range and the largest are not
// counted.
func (s *sweep) emitUps(now float64) uint64 {
	sc := s.sc
	for i := range sc.models {
		s.samplePos(i, now)
	}
	checked := s.near + uint64(len(sc.up))
	for _, k := range sc.downs {
		if sc.positions[k[0]].Dist2(sc.positions[k[1]]) <= sc.maxRange*sc.maxRange {
			checked++
		}
	}
	sc.emitRanked()
	return checked
}
