package mobility

import (
	"math"

	"sdsrp/internal/geo"
	"sdsrp/internal/rng"
)

// RandomWalk moves in a uniformly random direction for a fixed epoch
// distance, then turns; the walk reflects off the area borders. It is one of
// the mobility families for which intermeeting times have provably
// exponential tails (paper Section III-B, citing Groenevelt et al.).
type RandomWalk struct {
	legMover
	uniformLegs
}

// NewRandomWalk creates a random walker: each epoch covers epochDist metres
// at a speed drawn from [speedLo, speedHi] with no pauses.
func NewRandomWalk(area geo.Rect, speedLo, speedHi, epochDist float64, s *rng.Stream) *RandomWalk {
	m := new(RandomWalk)
	InitRandomWalk(m, &Legs{Area: area, SpeedLo: speedLo, SpeedHi: speedHi, EpochDist: epochDist}, s)
	return m
}

// InitRandomWalk fills m in place as NewRandomWalk would build it on legs,
// whose pause range it ignores. m must not be copied afterwards.
func InitRandomWalk(m *RandomWalk, legs *Legs, s *rng.Stream) {
	m.uniformLegs = uniformLegs{legs: legs, s: s}
	initLegMover(&m.legMover, uniformPoint(legs.Area, s), legs.SpeedHi+1e-12, m)
}

func (m *RandomWalk) dest(from geo.Point) geo.Point {
	theta := m.s.Uniform(0, 2*math.Pi)
	d := m.legs.EpochDist
	dest := from.Add(geo.Vec{X: d * math.Cos(theta), Y: d * math.Sin(theta)})
	return reflect(m.legs.Area, dest)
}

// pause is always 0 and draws nothing: a walker turns without stopping.
func (m *RandomWalk) pause() float64 { return 0 }

// RandomDirection picks a direction and travels until it reaches the area
// border, pauses, then picks a new direction.
type RandomDirection struct {
	legMover
	uniformLegs
}

// NewRandomDirection creates a random-direction walker.
func NewRandomDirection(area geo.Rect, speedLo, speedHi, pauseLo, pauseHi float64, s *rng.Stream) *RandomDirection {
	m := new(RandomDirection)
	InitRandomDirection(m, &Legs{Area: area, SpeedLo: speedLo, SpeedHi: speedHi,
		PauseLo: pauseLo, PauseHi: pauseHi}, s)
	return m
}

// InitRandomDirection fills m in place as NewRandomDirection would build
// it on legs. m must not be copied afterwards.
func InitRandomDirection(m *RandomDirection, legs *Legs, s *rng.Stream) {
	m.uniformLegs = uniformLegs{legs: legs, s: s}
	initLegMover(&m.legMover, uniformPoint(legs.Area, s), legs.SpeedHi+1e-12, m)
}

func (m *RandomDirection) dest(from geo.Point) geo.Point {
	return borderHit(m.legs.Area, from, m.s.Uniform(0, 2*math.Pi))
}

// reflect folds a point that left the area back inside by mirroring across
// the borders it crossed (repeatedly, for far excursions).
func reflect(area geo.Rect, p geo.Point) geo.Point {
	p.X = reflect1(p.X, area.Min.X, area.Max.X)
	p.Y = reflect1(p.Y, area.Min.Y, area.Max.Y)
	return p
}

func reflect1(v, lo, hi float64) float64 {
	if hi <= lo {
		return lo
	}
	span := hi - lo
	// Map onto a 2·span sawtooth.
	v = math.Mod(v-lo, 2*span)
	if v < 0 {
		v += 2 * span
	}
	if v > span {
		v = 2*span - v
	}
	return lo + v
}

// borderHit returns the first intersection of the ray (from, theta) with
// the area border. If the ray starts on the border pointing outward, the
// start point is returned.
func borderHit(area geo.Rect, from geo.Point, theta float64) geo.Point {
	dx, dy := math.Cos(theta), math.Sin(theta)
	best := math.Inf(1)
	consider := func(t float64) {
		if t > 1e-12 && t < best {
			best = t
		}
	}
	if dx > 0 {
		consider((area.Max.X - from.X) / dx)
	} else if dx < 0 {
		consider((area.Min.X - from.X) / dx)
	}
	if dy > 0 {
		consider((area.Max.Y - from.Y) / dy)
	} else if dy < 0 {
		consider((area.Min.Y - from.Y) / dy)
	}
	if math.IsInf(best, 1) {
		return from
	}
	return area.Clamp(from.Add(geo.Vec{X: dx * best, Y: dy * best}))
}
