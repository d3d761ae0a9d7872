// Package mobility implements node movement models.
//
// A Model yields a node's position at monotonically non-decreasing query
// times; the contact scanner samples every node each scan tick. Models are
// lazy: legs are generated on demand from a per-node deterministic stream,
// so two runs with the same seed trace identical paths.
//
// Implemented models: RandomWaypoint (the paper's synthetic scenario),
// RandomWalk and RandomDirection (used by the intermeeting-tail literature
// the paper cites), Static, Path (trace playback), and Taxi (hotspot-biased
// city driving, the EPFL substitute — see DESIGN.md §4).
//
//lint:shard-safe models own their substreams via constructor injection and touch no package state
package mobility

import (
	"sdsrp/internal/geo"
	"sdsrp/internal/rng"
)

// Model drives one node's movement.
type Model interface {
	// Pos returns the position at time t. Query times must be
	// non-decreasing across calls.
	Pos(t float64) geo.Point

	// MaxSpeed returns an upper bound on the node's speed in m/s: for any
	// t1 ≤ t2, |Pos(t2) − Pos(t1)| ≤ MaxSpeed() · (t2 − t1).
	//
	// # Performance contract
	//
	// This bound is what lets the planning contact scanners
	// (internal/network) skip distance checks physics rules out: the lazy
	// sweep parks a far-apart pair until the tick at which the pair could
	// first close to radio range, and the kinetic planner additionally
	// parks a whole node for as long as the bound proves it stays inside
	// its grid bucket. The bound must
	// therefore hold for the model's entire lifetime and must never
	// under-report: a too-small value silently breaks contact detection
	// (missed link-ups), while a too-large value only costs earlier
	// wake-ups. Models with a configured speed range return the range's
	// upper cap; Static returns 0 (never checked against a moving peer
	// beyond the one parked deadline); trace playback (Path) returns the
	// steepest segment speed measured once at construction. A model free
	// to teleport may return +Inf, which disables parking for its pairs
	// and nodes. The value must be constant across the model's lifetime —
	// the scanners read it once at startup.
	MaxSpeed() float64
}

// legMover factors the travel/pause state machine shared by waypoint-style
// models. pickDest chooses the next destination; pickSpeed and pickPause
// draw per-leg parameters.
type legMover struct {
	from, to         geo.Point
	legStart, legEnd float64
	pauseEnd         float64
	maxSpeed         float64

	pickDest  func(from geo.Point) geo.Point
	pickSpeed func() float64
	pickPause func() float64
}

// newLegMover wires the state machine. maxSpeed must upper-bound every value
// pickSpeed can return; advance clamps non-positive draws to 1e-9, so the
// stored bound is floored there too.
func newLegMover(start geo.Point, maxSpeed float64, pickDest func(geo.Point) geo.Point, pickSpeed, pickPause func() float64) legMover {
	if maxSpeed < 1e-9 {
		maxSpeed = 1e-9
	}
	return legMover{
		from: start, to: start, maxSpeed: maxSpeed,
		pickDest: pickDest, pickSpeed: pickSpeed, pickPause: pickPause,
	}
}

// MaxSpeed implements Model. Per-leg speed is dist/dur with dur only ever
// clamped upward, so the drawn-speed cap passed to newLegMover is a true
// displacement bound.
func (l *legMover) MaxSpeed() float64 { return l.maxSpeed }

// Pos implements Model.
func (l *legMover) Pos(t float64) geo.Point {
	for t >= l.pauseEnd {
		l.advance()
	}
	switch {
	case t >= l.legEnd:
		return l.to // pausing at the destination
	case t <= l.legStart:
		return l.from
	default:
		frac := (t - l.legStart) / (l.legEnd - l.legStart)
		return l.from.Lerp(l.to, frac)
	}
}

func (l *legMover) advance() {
	l.from = l.to
	l.legStart = l.pauseEnd
	l.to = l.pickDest(l.from)
	speed := l.pickSpeed()
	if speed <= 0 {
		speed = 1e-9
	}
	//lint:ignore hot-dist leg duration needs the true length, not its square
	dur := l.from.Dist(l.to) / speed
	if dur < 1e-9 {
		dur = 1e-9 // zero-length legs must still advance time
	}
	l.legEnd = l.legStart + dur
	pause := l.pickPause()
	if pause < 0 {
		pause = 0
	}
	// Strictly positive progress guarantees Pos terminates.
	l.pauseEnd = l.legEnd + pause
	if l.pauseEnd <= l.legStart {
		l.pauseEnd = l.legStart + 1e-9
	}
}

// RandomWaypoint is the classic model: pick a uniform destination in the
// area, travel at a uniform-random speed, pause, repeat. The paper's Table
// II uses a fixed 2 m/s speed and no pause.
type RandomWaypoint struct {
	legMover
}

// NewRandomWaypoint creates a random-waypoint walker starting at a uniform
// random position. Speeds are drawn from [speedLo, speedHi], pauses from
// [pauseLo, pauseHi].
func NewRandomWaypoint(area geo.Rect, speedLo, speedHi, pauseLo, pauseHi float64, s *rng.Stream) *RandomWaypoint {
	start := uniformPoint(area, s)
	m := &RandomWaypoint{}
	m.legMover = newLegMover(start, speedHi+1e-12,
		func(geo.Point) geo.Point { return uniformPoint(area, s) },
		func() float64 { return s.Uniform(speedLo, speedHi+1e-12) },
		func() float64 { return s.Uniform(pauseLo, pauseHi+1e-12) },
	)
	return m
}

func uniformPoint(area geo.Rect, s *rng.Stream) geo.Point {
	return geo.Point{
		X: s.Uniform(area.Min.X, area.Max.X),
		Y: s.Uniform(area.Min.Y, area.Max.Y),
	}
}

// Static is a non-moving node (infrastructure, throwboxes, unit tests).
type Static struct {
	P geo.Point
}

// Pos implements Model.
func (m Static) Pos(float64) geo.Point { return m.P }

// MaxSpeed implements Model: a static node never moves.
func (m Static) MaxSpeed() float64 { return 0 }
