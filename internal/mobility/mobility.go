// Package mobility implements node movement models.
//
// A Model yields a node's position at monotonically non-decreasing query
// times; the contact scanner samples them on its scan ticks. Models are
// lazy: legs are generated on demand from a per-node deterministic stream,
// so two runs with the same seed trace identical paths.
//
// The waypoint-style models share one travel/pause state machine,
// legMover, which draws each leg by calling its model's dest, speed and
// pause methods: a model and its parameters are one object, with no
// closures. Every model has a New constructor and an Init function that
// fills one in place, so a world can keep its fleet in one slab; the
// constructor is Init on a fresh allocation.
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
	// This bound is what lets the contact scan (internal/network) test only
	// the pairs its neighbour list holds: the list keeps every pair within
	// three radio ranges, and is rebuilt only as often as the fleet's
	// largest bound requires, so that no pair left off it can close to
	// radio range before the next build. Between builds the scan samples
	// only the nodes on a listed pair. The bound must therefore hold for
	// the model's entire lifetime and must never under-report: a
	// too-small value silently breaks contact detection (missed link-ups),
	// while a too-large value only costs more frequent rebuilds. Models
	// with a configured speed range return the range's upper cap; Static
	// returns 0; trace playback (Path) returns the steepest segment speed
	// measured once at construction. A model free to teleport may return
	// +Inf, which makes the scan rebuild its list on every tick. The value
	// must be constant across the model's lifetime — the scanner reads it
	// once at startup.
	MaxSpeed() float64
}

// legPicker draws a waypoint-style model's legs: the next destination from
// the current point, the leg's speed, and the pause at its end. Every model
// built on legMover implements it, and legMover calls it in exactly that
// order once per leg.
type legPicker interface {
	dest(from geo.Point) geo.Point
	speed() float64
	pause() float64
}

// legMover factors the travel/pause state machine shared by waypoint-style
// models. It draws each leg through pick, the model that embeds it, whose
// methods read the model's own parameters and stream: a model is one
// object, with no per-model closures.
type legMover struct {
	from, to         geo.Point
	legStart, legEnd float64
	pauseEnd         float64
	maxSpeed         float64

	pick legPicker
}

// initLegMover wires the state machine in place; pick is the embedding
// model, so a model must not be copied once initialised. maxSpeed must
// upper-bound every value pick.speed can return; advance clamps
// non-positive draws to 1e-9, so the stored bound is floored there too.
func initLegMover(l *legMover, start geo.Point, maxSpeed float64, pick legPicker) {
	if maxSpeed < 1e-9 {
		maxSpeed = 1e-9
	}
	*l = legMover{from: start, to: start, maxSpeed: maxSpeed, pick: pick}
}

// MaxSpeed implements Model. Per-leg speed is dist/dur with dur only ever
// clamped upward, so the drawn-speed cap passed to initLegMover is a true
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
	l.to = l.pick.dest(l.from)
	speed := l.pick.speed()
	if speed <= 0 {
		speed = 1e-9
	}
	//lint:ignore hot-dist leg duration needs the true length, not its square
	dur := l.from.Dist(l.to) / speed
	if dur < 1e-9 {
		dur = 1e-9 // zero-length legs must still advance time
	}
	l.legEnd = l.legStart + dur
	pause := l.pick.pause()
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
	uniformLegs
}

// NewRandomWaypoint creates a random-waypoint walker starting at a uniform
// random position. Speeds are drawn from [speedLo, speedHi], pauses from
// [pauseLo, pauseHi].
func NewRandomWaypoint(area geo.Rect, speedLo, speedHi, pauseLo, pauseHi float64, s *rng.Stream) *RandomWaypoint {
	m := new(RandomWaypoint)
	InitRandomWaypoint(m, &Legs{Area: area, SpeedLo: speedLo, SpeedHi: speedHi,
		PauseLo: pauseLo, PauseHi: pauseHi}, s)
	return m
}

// InitRandomWaypoint fills m in place as NewRandomWaypoint would build it
// on legs, for callers that keep a fleet's models in one slab with one
// Legs per group. m must not be copied afterwards.
func InitRandomWaypoint(m *RandomWaypoint, legs *Legs, s *rng.Stream) {
	m.uniformLegs = uniformLegs{legs: legs, s: s}
	initLegMover(&m.legMover, uniformPoint(legs.Area, s), legs.SpeedHi+1e-12, m)
}

func (m *RandomWaypoint) dest(geo.Point) geo.Point { return uniformPoint(m.legs.Area, m.s) }

// Legs is what a group of uniform-range walkers (RandomWaypoint,
// RandomWalk, RandomDirection, MapRoute) draws its legs from: the area, the
// speed range in m/s and the pause range in seconds, and, for RandomWalk
// alone, the epoch distance in metres. RandomWalk reads no pause range, and
// MapRoute no area: its graph bounds every leg. A walker keeps a pointer to
// it, so a group's walkers hold one copy and it must not change once they
// are built.
type Legs struct {
	Area                               geo.Rect
	SpeedLo, SpeedHi, PauseLo, PauseHi float64
	EpochDist                          float64
}

// uniformLegs is what the uniform-range models draw their legs from: their
// group's Legs and the node's own stream.
type uniformLegs struct {
	legs *Legs
	s    *rng.Stream
}

func (u *uniformLegs) speed() float64 { return u.s.Uniform(u.legs.SpeedLo, u.legs.SpeedHi+1e-12) }

func (u *uniformLegs) pause() float64 { return u.s.Uniform(u.legs.PauseLo, u.legs.PauseHi+1e-12) }

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
