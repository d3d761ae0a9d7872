package network

import (
	"math"

	"sdsrp/internal/geo"
	"sdsrp/internal/mobility"
)

// This file holds the kinetic planner's parking core (kinetic.go): the wake
// wheel, the park deadlines and the load monitor. A node is awake, checked
// every tick, or parked in a tick-bucketed wake wheel until a deadline
// before which physics rules out any change the scan must see. The planner
// tick (scanner.parkedDowns, then scanner.parkedUps) is one loop:
//
//  1. wake the nodes whose deadline arrived;
//  2. the planner's check: evaluate the contact predicate on what is awake,
//     collect up candidates, clear flap suppression where the predicate is
//     false, and park what the motion bound allows;
//  3. downs, exactly like the naive path: recompute the predicate per up
//     pair, canonical sort;
//  4. ups: zero or one candidate needs no ordering, two or more go through
//     the scanner's one ordering routine (scanner.emitOrdered) in the naive
//     emission order;
//  5. the load monitor.
//
// Byte-identity with the naive scanner rests on three shared facts. The
// predicate (scanner.pairInContact's comparisons) is the same code, and
// Model.Pos is deterministic for a given query time regardless of earlier
// queries, so lazily sampled positions are bit-identical to the naive
// schedule. Downs derive from the up record in key order. And every parking
// deadline is ⌊τ/interval⌋ for a τ in seconds through which physics rules
// out any change the scan must see, so the K−1 skipped ticks keep at least
// one full tick of margin plus geo.DistLowerBound's slack, which dominates
// every float-rounding step in the chain (position interpolation, the
// distance square root, and the engine's accumulated tick times). τ is the
// later of two proofs. The motion bound (boundTicks) closes a gap at the
// MaxSpeed bound. The certificate reads the linear leg each node is on
// (mobility.Legged): a pair stays apart until its relative motion could
// first bring it within range (geo.ApproachTime), and a node stays in its
// bucket until its leg leaves the box (geo.Cells.ExitTime); past the earlier
// leg end the motion bound takes over from the distance there. Models
// without legs (trace playback) get the motion bound alone. Nodes park only
// at K ≥ 2: a one-tick park costs wheel traffic without skipping anything.
//
// Workloads where most nodes wake often (fast movers, short deadlines) can
// cost more in bookkeeping than naive's flat per-node pass. The load
// monitor (loadWindow) then retires the planner for the rest of the run;
// the trigger reads only simulated state, so it is deterministic, and the
// streams are byte-identical, so the switch is unobservable.

const (
	// wheelBuckets must be a power of two (bucket index is masked). The
	// wheel is hashed: a node whose wake tick lies a lap or more ahead is
	// re-kept with one comparison when its bucket comes around.
	wheelBuckets = 256
	// maxParkTicks caps a park so that the accumulated float error of
	// tick-time addition stays far inside the deadline margin; a node
	// re-checked once every million ticks is already free.
	maxParkTicks = 1_000_000
	// loadWindow is the load monitor's window in ticks: if a window's
	// planner checks (step 2 only) exceed loadWindow·n — more predicate
	// evaluations per tick than there are nodes — parking costs more than
	// naive's per-node sample and list pass, and the planner retires. The
	// bootstrap tick (a full pass by design) is excluded from the first
	// window.
	loadWindow = 64
	// retireReason is the FallbackReason of a run whose load monitor fired.
	retireReason = "kinetic:load-monitor->naive"
)

// Node states: awake nodes are in the awake set, parked nodes in the wake
// wheel.
const (
	nodeAwake uint8 = iota
	nodeParked
)

// parking is the kinetic planner's per-node core: the wake wheel, the awake
// set, the per-tick position sampler and the load monitor's window. Nodes
// are dense int32 ids.
type parking struct {
	sc *scanner
	n  int // nodes
	// tick counts the planner's scans; the first is tick 1. Wake deadlines
	// are absolute ticks.
	tick     int64
	interval float64
	// now is the current tick's time, the time of every position sampled
	// this tick.
	now float64
	// speed[i] is models[i].MaxSpeed(), read once at construction (the
	// contract requires it to be constant).
	speed []float64

	state []uint8
	wake  []int64 // absolute wake tick, valid while state == nodeParked
	// The wheel is an intrusive doubly-linked list per bucket: wheelHead[b]
	// is the first parked node in bucket b (-1 when empty), wnext and wprev
	// chain them. Parking pushes onto the head and waking unlinks in place,
	// in O(1) even mid-bucket, so the wheel never allocates after
	// construction.
	wheelHead [wheelBuckets]int32
	wnext     []int32
	wprev     []int32
	// active holds the awake nodes; slot[i] is i's position in it (-1 when
	// not awake). Swap-removal keeps both O(1); iteration order is internal
	// only — every emission is canonically ordered.
	active []int32
	slot   []int32

	// posTick stamps the tick each node's position was last sampled, so a
	// node read by several checks moves once per tick.
	posTick []int64
	// skipping counts the parked nodes, whose checks this tick skips, for
	// the pairs-skipped counter.
	skipping int64
	// windowChecked accumulates step-2 checks toward the load monitor.
	windowChecked uint64
}

// newParking builds the core with every node awake.
func newParking(sc *scanner) parking {
	n := len(sc.models)
	p := parking{
		sc:       sc,
		n:        n,
		interval: sc.interval,
		speed:    make([]float64, n),
		state:    make([]uint8, n),
		wake:     make([]int64, n),
		wnext:    make([]int32, n),
		wprev:    make([]int32, n),
		active:   make([]int32, n),
		slot:     make([]int32, n),
		posTick:  make([]int64, n),
	}
	for b := range p.wheelHead {
		p.wheelHead[b] = -1
	}
	for i := range p.active {
		p.active[i] = int32(i)
		p.slot[i] = int32(i)
	}
	for i, model := range sc.models {
		p.speed[i] = model.MaxSpeed()
	}
	return p
}

// activate moves node i into the awake set.
func (p *parking) activate(i int32) {
	p.state[i] = nodeAwake
	p.slot[i] = int32(len(p.active))
	p.active = append(p.active, i)
}

// deactivate swap-removes node i from the awake set.
func (p *parking) deactivate(i int32) {
	s := p.slot[i]
	last := int32(len(p.active) - 1)
	moved := p.active[last]
	p.active[s] = moved
	p.slot[moved] = s
	p.active = p.active[:last]
	p.slot[i] = -1
}

// park moves awake node i into the wheel until the absolute tick wakeAt.
//
// Performance contract: O(1) list splices, no allocation.
func (p *parking) park(i int32, wakeAt int64) {
	p.deactivate(i)
	p.state[i] = nodeParked
	p.wake[i] = wakeAt
	b := wakeAt & (wheelBuckets - 1)
	h := p.wheelHead[b]
	p.wnext[i] = h
	p.wprev[i] = -1
	if h >= 0 {
		p.wprev[h] = i
	}
	p.wheelHead[b] = i
	p.skipping++
}

// unpark unlinks node i from its wheel bucket and returns it to the awake
// set.
//
// Performance contract: O(1) list splices, no allocation.
func (p *parking) unpark(i int32) {
	if pr := p.wprev[i]; pr >= 0 {
		p.wnext[pr] = p.wnext[i]
	} else {
		p.wheelHead[p.wake[i]&(wheelBuckets-1)] = p.wnext[i]
	}
	if nx := p.wnext[i]; nx >= 0 {
		p.wprev[nx] = p.wprev[i]
	}
	p.skipping--
	p.activate(i)
}

// wakeDue wakes every node whose deadline is the current tick, in bucket
// order, and returns how many it woke. Nodes parked a lap or more ahead
// stay with one comparison.
func (p *parking) wakeDue() uint64 {
	woken := uint64(0)
	for i := p.wheelHead[p.tick&(wheelBuckets-1)]; i != -1; {
		next := p.wnext[i]
		if p.wake[i] <= p.tick {
			p.unpark(i)
			woken++
		}
		i = next
	}
	return woken
}

// samplePos samples node i's position once per tick.
func (p *parking) samplePos(i int, now float64) {
	if p.posTick[i] != p.tick {
		p.sc.positions[i] = p.sc.models[i].Pos(now)
		p.posTick[i] = p.tick
	}
}

// boundTicks is the motion bound the kinetic planner parks on, and the
// neighbour list's period (nlist.go): the whole ticks of interval seconds a
// gap of gap metres provably stays open when it closes at most c metres per
// second. It is 0 when the gap is already closed, and maxParkTicks when c
// is zero or the bound exceeds the cap.
//
// Performance contract: pure arithmetic, no allocation.
func boundTicks(gap, c, interval float64) int64 {
	if gap <= 0 {
		return 0
	}
	if c <= 0 {
		return maxParkTicks
	}
	return ticksFor(gap/c, interval) // c = +Inf (teleporting model) gives 0
}

// ticksFor converts τ, the seconds through which a proof rules out any
// change the scan must see, into whole ticks of interval seconds:
// ⌊τ/interval⌋, so the K−1 skipped ticks keep one tick of margin, capped at
// maxParkTicks. A non-positive or NaN τ gives 0.
//
// Performance contract: pure arithmetic, no allocation.
func ticksFor(tau, interval float64) int64 {
	k := tau / interval
	if !(k > 0) {
		return 0
	}
	if !(k < maxParkTicks) {
		return maxParkTicks
	}
	return int64(k)
}

// legOf returns the linear leg node i is on at the current tick and the
// seconds it still holds, or ok = false when its model reports none (trace
// playback) or the core was built without models (test rigs), which then
// park on the motion bound alone. Call it only after samplePos(i) this
// tick: models are forward-only and report the leg of their latest query.
//
// Performance contract: one interface assertion and the model's stored-leg
// read, no allocation.
func (p *parking) legOf(i int) (v geo.Vec, left float64, ok bool) {
	if p.sc == nil {
		return geo.Vec{}, 0, false
	}
	l, ok := p.sc.models[i].(mobility.Legged)
	if !ok {
		return geo.Vec{}, 0, false
	}
	v, until := l.Leg(p.now)
	left = until - p.now
	return v, left, left > 0 // a leg that has already ended proves nothing
}

// pairTicks returns how many whole ticks pair (i,j), sampled this tick at
// squared distance d2 with effective range r, provably stays out of range:
// the later of two proofs. The motion bound (boundTicks) closes the gap,
// the conservative lower bound on the distance minus the range, at the
// pair's combined speed bound. The certificate follows both nodes' legs: it
// holds until their relative motion could first bring the pair within range
// (geo.ApproachTime) or, if the earlier leg ends first, until that leg end
// plus the motion bound from the distance there. An in-range pair gets 0
// either way, so a pair whose predicate failed only because an endpoint is
// churn-downed or energy-dead is re-checked every tick, exactly as the
// naive scanner does.
//
// Performance contract: pure arithmetic, no allocation.
func (p *parking) pairTicks(i, j int, d2, r float64) int64 {
	c := p.speed[i] + p.speed[j]
	k := boundTicks(geo.DistLowerBound(d2)-r, c, p.interval)
	if k >= maxParkTicks {
		return k
	}
	vi, li, ok := p.legOf(i)
	if !ok {
		return k
	}
	vj, lj, ok := p.legOf(j)
	if !ok {
		return k
	}
	pi, pj := p.sc.positions[i], p.sc.positions[j]
	end := min(li, lj)
	tau := geo.ApproachTime(pi, vi, pj, vj, r)
	if tau >= end && end < math.Inf(1) {
		// Apart through the earlier leg end; from there on only the bound.
		ei, ej := pi.Add(vi.Scale(end)), pj.Add(vj.Scale(end))
		tau = end + (geo.DistLowerBound(ei.Dist2(ej))-r)/c
	}
	return max(k, ticksFor(tau, p.interval))
}

// parkedDowns makes the first half of a planner tick (see the file
// comment): wakes, the planner's check, and the downs.
func (s *scanner) parkedDowns(now float64) {
	p := s.plan
	p.tick++
	p.now = now
	s.work.wakeups += p.wakeDue()

	checked := p.check(now)
	if p.tick > 1 {
		p.windowChecked += checked
	}

	// Downs: sample both endpoints of every up pair, then collect in key
	// order, exactly like the naive path.
	for _, k := range s.up {
		p.samplePos(int(k[0]), now)
		p.samplePos(int(k[1]), now)
	}
	s.work.checked += checked + uint64(len(s.up))
	s.collectDowns()
}

// parkedUps makes the second half of a planner tick: the ups and the load
// monitor.
func (s *scanner) parkedUps() {
	p := s.plan
	// Ups: one candidate needs no ordering.
	switch len(s.cands) {
	case 0:
	case 1:
		s.bringUp(s.cands[0])
	default:
		p.emitUps()
	}
	s.cands = s.cands[:0]
	s.work.skipped += uint64(p.skipping)

	// The load monitor: retire to the naive scan for the rest of the run.
	if p.tick%loadWindow == 0 {
		if p.windowChecked > loadWindow*uint64(p.n) {
			s.work.fallback = retireReason
			s.plan = nil
		}
		p.windowChecked = 0
	}
}
