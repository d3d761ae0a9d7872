package mobility

import (
	"sdsrp/internal/geo"
	"sdsrp/internal/rng"
)

// Hotspot is a popular destination zone for the Taxi model: trips end near
// Center with Gaussian scatter Sigma, chosen proportionally to Weight.
type Hotspot struct {
	Center geo.Point
	Sigma  float64
	Weight float64
}

// TaxiConfig parameterizes the synthetic city fleet that substitutes for
// the EPFL cabspotting trace (DESIGN.md §4). Defaults approximating San
// Francisco come from DefaultTaxiConfig.
type TaxiConfig struct {
	Area     geo.Rect
	Hotspots []Hotspot
	// UniformProb is the probability a trip ends at a uniform random spot
	// instead of a hotspot (outlying fares).
	UniformProb float64
	// Speed range in m/s (city driving).
	SpeedLo, SpeedHi float64
	// Pause range in seconds at each destination (pickup/dropoff idling).
	PauseLo, PauseHi float64
}

// DefaultTaxiConfig returns a San-Francisco-like layout: a ~13 km × 12 km
// box (city plus airport corridor, as covered by the cabspotting fleet)
// with eight weighted hotspots — a dominant downtown, a secondary
// mission/station cluster, and peripheral attractors. The dispersion is
// tuned so that a 200-taxi fleet meets *less* often than the paper's
// 100-node random-waypoint crowd (its Section IV-B2 observation) while
// still showing the strong aggregation its Fig. 9-(i) discussion relies
// on.
func DefaultTaxiConfig() TaxiConfig {
	return TaxiConfig{
		Area: geo.NewRect(13000, 12000),
		Hotspots: []Hotspot{
			{Center: geo.Point{X: 8800, Y: 9400}, Sigma: 700, Weight: 30}, // financial district
			{Center: geo.Point{X: 7700, Y: 8000}, Sigma: 800, Weight: 18}, // SoMa
			{Center: geo.Point{X: 6500, Y: 6200}, Sigma: 900, Weight: 12}, // Mission
			{Center: geo.Point{X: 9700, Y: 10800}, Sigma: 650, Weight: 8}, // North Beach
			{Center: geo.Point{X: 3400, Y: 9300}, Sigma: 1000, Weight: 7}, // Richmond
			{Center: geo.Point{X: 4000, Y: 4600}, Sigma: 1100, Weight: 6}, // Sunset
			{Center: geo.Point{X: 10500, Y: 1800}, Sigma: 750, Weight: 9}, // airport corridor
			{Center: geo.Point{X: 1800, Y: 1900}, Sigma: 1000, Weight: 4}, // lakeside
		},
		UniformProb: 0.25,
		SpeedLo:     6, SpeedHi: 14,
		PauseLo: 20, PauseHi: 180,
	}
}

// Taxi is the hotspot-biased waypoint model. Compared with RandomWaypoint
// it reproduces the qualitative EPFL properties the paper relies on: fewer,
// shorter contacts (higher speeds over a larger area) and strong spatial
// aggregation around popular zones.
type Taxi struct {
	legMover
	cfg     TaxiConfig
	s       *rng.Stream
	weights []float64 // cfg.Hotspots' weights, in order
}

// NewTaxi creates one taxi. The start position is drawn like a destination,
// so the initial fleet distribution already shows the aggregation pattern.
func NewTaxi(cfg TaxiConfig, s *rng.Stream) *Taxi {
	m := new(Taxi)
	InitTaxi(m, cfg, s)
	return m
}

// InitTaxi fills m in place as NewTaxi would build it, so that a caller can
// reuse one Taxi for a whole fleet or keep the fleet in one slab. A reused
// Taxi keeps its weights array, so a fleet driven through one Taxi
// allocates it once. m must not be copied afterwards.
func InitTaxi(m *Taxi, cfg TaxiConfig, s *rng.Stream) {
	m.cfg, m.s = cfg, s
	m.weights = m.weights[:0]
	for _, h := range cfg.Hotspots {
		m.weights = append(m.weights, h.Weight)
	}
	initLegMover(&m.legMover, m.dest(geo.Point{}), cfg.SpeedHi, m)
}

// dest draws a trip's end: a uniform point with probability UniformProb,
// otherwise a Gaussian spot around a hotspot chosen by weight.
func (m *Taxi) dest(geo.Point) geo.Point {
	cfg := &m.cfg
	if len(cfg.Hotspots) == 0 || m.s.Bool(cfg.UniformProb) {
		return uniformPoint(cfg.Area, m.s)
	}
	h := cfg.Hotspots[m.s.WeightedIndex(m.weights)]
	p := geo.Point{
		X: m.s.Normal(h.Center.X, h.Sigma),
		Y: m.s.Normal(h.Center.Y, h.Sigma),
	}
	return cfg.Area.Clamp(p)
}

func (m *Taxi) speed() float64 { return m.s.Uniform(m.cfg.SpeedLo, m.cfg.SpeedHi) }

func (m *Taxi) pause() float64 { return m.s.Uniform(m.cfg.PauseLo, m.cfg.PauseHi) }
