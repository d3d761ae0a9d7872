package mobility

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"sdsrp/internal/geo"
)

// TimedPoint is one waypoint of a recorded trajectory.
type TimedPoint struct {
	T float64
	P geo.Point
}

// Path plays back a recorded trajectory, interpolating linearly between
// waypoints. Before the first waypoint the node sits at it; after the last
// it stays there. This is the adapter between trace files (internal/trace)
// and the simulator.
type Path struct {
	points []TimedPoint
	// cursor is the index of the last segment used; queries are
	// non-decreasing in time, so scanning forward from it is O(1) amortized.
	cursor int
	// maxSpeed is the steepest segment speed, measured once at
	// construction (the MaxSpeed performance contract).
	maxSpeed float64
}

// NewPath builds a playback model. Waypoints are sorted by time; at least
// one waypoint is required. NewPath copies points, so the caller keeps its
// slice.
func NewPath(points []TimedPoint) (*Path, error) {
	p := new(Path)
	if err := InitPath(p, append([]TimedPoint(nil), points...)); err != nil {
		return nil, err
	}
	return p, nil
}

// InitPath fills p in place as NewPath would build it, for callers that
// keep a fleet's paths in one slab. Unlike NewPath it takes ownership of
// points: it sorts them in place and plays them back, so the caller must
// not modify the slice afterwards.
func InitPath(p *Path, points []TimedPoint) error {
	if len(points) == 0 {
		return fmt.Errorf("mobility: empty path")
	}
	slices.SortStableFunc(points, func(a, b TimedPoint) int {
		switch {
		case a.T < b.T:
			return -1
		case b.T < a.T:
			return 1
		}
		return 0
	})
	*p = Path{points: points}
	for i := 1; i < len(points); i++ {
		a, b := points[i-1], points[i]
		//lint:ignore hot-dist parse-time bound measurement, not a per-tick check
		d := a.P.Dist(b.P)
		if d == 0 {
			continue
		}
		var v float64
		if dt := b.T - a.T; dt > 0 {
			v = d / dt
		} else {
			v = math.Inf(1) // recorded teleport: no finite bound exists
		}
		if v > p.maxSpeed {
			p.maxSpeed = v
		}
	}
	// One part in 2^30 of headroom absorbs the rounding difference between
	// this measurement and the Lerp arithmetic Pos replays.
	p.maxSpeed *= 1 + 1e-9
	return nil
}

// MaxSpeed implements Model.
func (p *Path) MaxSpeed() float64 { return p.maxSpeed }

// Pos implements Model.
func (p *Path) Pos(t float64) geo.Point {
	pts := p.points
	if t <= pts[0].T {
		p.cursor = 0
		return pts[0].P
	}
	last := len(pts) - 1
	if t >= pts[last].T {
		p.cursor = last
		return pts[last].P
	}
	// Resume from the cursor; rewind only if the caller went back in time.
	i := p.cursor
	if i > 0 && pts[i].T > t {
		i = sort.Search(len(pts), func(k int) bool { return pts[k].T > t }) - 1
	}
	for i+1 < len(pts) && pts[i+1].T <= t {
		i++
	}
	p.cursor = i
	a, b := pts[i], pts[i+1]
	if b.T == a.T {
		return b.P
	}
	frac := (t - a.T) / (b.T - a.T)
	return a.P.Lerp(b.P, frac)
}

// Duration returns the time span covered by the path.
func (p *Path) Duration() float64 {
	return p.points[len(p.points)-1].T - p.points[0].T
}

// Start returns the first waypoint time.
func (p *Path) Start() float64 { return p.points[0].T }
