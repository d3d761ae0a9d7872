// Package mobility implements node movement models.
//
// A Model yields a node's position at monotonically non-decreasing query
// times; the contact scanner samples every node each scan tick. Models are
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
	"math"

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
	// This bound is what lets the contact scanners (internal/network) skip
	// distance checks physics rules out: the kinetic planner parks a node
	// until the tick at which any pair it is in could first close to radio
	// range, and no longer than the bound proves it stays inside its grid
	// bucket; the naive scan rebuilds its neighbour list only as often as
	// the fleet's largest bound requires. The bound must
	// therefore hold for the model's entire lifetime and must never
	// under-report: a too-small value silently breaks contact detection
	// (missed link-ups), while a too-large value only costs earlier
	// wake-ups. Models with a configured speed range return the range's
	// upper cap; Static returns 0 (never checked against a moving peer
	// beyond the one parked deadline); trace playback (Path) returns the
	// steepest segment speed measured once at construction. A model free
	// to teleport may return +Inf, which disables parking for its pairs
	// and nodes. The value must be constant across the model's lifetime —
	// the scanners read it once at startup. A model that moves in straight
	// legs also implements Legged, whose certificate the scanners use
	// wherever it proves a longer park than this bound.
	MaxSpeed() float64
}

// Legged is a Model that moves in straight legs and reports the one it is
// on: every model built on legMover (RandomWaypoint, RandomWalk,
// RandomDirection, MapRoute, Taxi) and Static. Trace playback (Path) does
// not implement it.
type Legged interface {
	Model

	// Leg reports the linear piece in force at t, which must be the time of
	// the latest Pos query: the velocity v and the time until through which
	// it holds, so that Pos(t′) = Pos(t) + v·(t′−t) up to float rounding for
	// every t ≤ t′ ≤ until. until > t, and a node that never moves again
	// returns v = 0 and until = +Inf.
	//
	// # Performance contract
	//
	// This is the certificate MaxSpeed's bound is extended with: the
	// planning scanners (internal/network) park a pair until its relative
	// linear motion could first bring it within radio range, or until the
	// earlier leg end plus the MaxSpeed bound from the distance there, and a
	// kinetic node until its leg leaves its grid bucket. The same rules as
	// MaxSpeed apply: a piece that ends later than reported, or a velocity
	// that differs from the motion Pos replays, silently breaks contact
	// detection, while an early until only costs an earlier wake-up.
	// Implementations read stored leg state and allocate nothing.
	Leg(t float64) (v geo.Vec, until float64)
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

// Leg implements Legged. After Pos(t) the mover is either travelling (t
// before legEnd) at the leg's constant velocity, or pausing at the
// destination until pauseEnd, where Pos starts the next leg from the same
// point.
//
// Performance contract: reads the stored leg, no allocation.
func (l *legMover) Leg(t float64) (geo.Vec, float64) {
	if t >= l.legEnd {
		return geo.Vec{}, l.pauseEnd
	}
	return l.to.Sub(l.from).Scale(1 / (l.legEnd - l.legStart)), l.legEnd
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
	InitRandomWaypoint(m, area, speedLo, speedHi, pauseLo, pauseHi, s)
	return m
}

// InitRandomWaypoint fills m in place as NewRandomWaypoint would build it,
// for callers that keep a fleet's models in one slab. m must not be copied
// afterwards.
func InitRandomWaypoint(m *RandomWaypoint, area geo.Rect, speedLo, speedHi, pauseLo, pauseHi float64, s *rng.Stream) {
	m.uniformLegs = uniformLegs{area: area, speedLo: speedLo, speedHi: speedHi,
		pauseLo: pauseLo, pauseHi: pauseHi, s: s}
	initLegMover(&m.legMover, uniformPoint(area, s), speedHi+1e-12, m)
}

func (m *RandomWaypoint) dest(geo.Point) geo.Point { return uniformPoint(m.area, m.s) }

// uniformLegs holds what the uniform-range models (RandomWaypoint,
// RandomWalk, RandomDirection) draw their legs from: the area, the speed and
// pause ranges, and the node's stream.
type uniformLegs struct {
	area                               geo.Rect
	speedLo, speedHi, pauseLo, pauseHi float64
	s                                  *rng.Stream
}

func (u *uniformLegs) speed() float64 { return u.s.Uniform(u.speedLo, u.speedHi+1e-12) }

func (u *uniformLegs) pause() float64 { return u.s.Uniform(u.pauseLo, u.pauseHi+1e-12) }

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

// Leg implements Legged: one leg at rest, forever.
func (m Static) Leg(float64) (geo.Vec, float64) { return geo.Vec{}, math.Inf(1) }
