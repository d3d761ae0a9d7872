package mobility

import (
	"fmt"

	"sdsrp/internal/geo"
	"sdsrp/internal/graph"
	"sdsrp/internal/rng"
)

// MapRoute is map-constrained movement (the ONE simulator's map-based
// model): the node picks a random intersection of a road graph, walks the
// shortest path to it vertex by vertex, pauses, and repeats. The paper's
// RWP description — "selecting a destination randomly and walking along
// the shortest path to reach the destination" — is exactly this model with
// the road graph as the constraint.
type MapRoute struct {
	legMover
	uniformLegs // area unused: the graph bounds every leg
	g           *graph.Graph
	cur         int   // vertex the node last left or reached
	queue       []int // rest of the current route
}

// NewMapRoute creates a walker on g. The graph must be connected (every
// destination must be reachable); speeds and pauses are uniform in their
// ranges.
func NewMapRoute(g *graph.Graph, speedLo, speedHi, pauseLo, pauseHi float64, s *rng.Stream) (*MapRoute, error) {
	if err := CheckRoadGraph(g); err != nil {
		return nil, err
	}
	m := new(MapRoute)
	InitMapRoute(m, g, speedLo, speedHi, pauseLo, pauseHi, s)
	return m, nil
}

// CheckRoadGraph reports why g cannot carry MapRoute walkers: it has fewer
// than 2 vertices, or some vertex cannot reach another.
func CheckRoadGraph(g *graph.Graph) error {
	if g.Len() < 2 {
		return fmt.Errorf("mobility: road graph needs at least 2 vertices")
	}
	if !g.Connected() {
		return fmt.Errorf("mobility: road graph is not connected")
	}
	return nil
}

// InitMapRoute fills m in place as NewMapRoute would build it, for callers
// that keep a fleet's walkers in one slab. g must pass CheckRoadGraph, which
// a fleet sharing one graph runs once. m must not be copied afterwards.
func InitMapRoute(m *MapRoute, g *graph.Graph, speedLo, speedHi, pauseLo, pauseHi float64, s *rng.Stream) {
	*m = MapRoute{g: g, cur: s.IntN(g.Len()), uniformLegs: uniformLegs{
		speedLo: speedLo, speedHi: speedHi, pauseLo: pauseLo, pauseHi: pauseHi, s: s}}
	initLegMover(&m.legMover, g.At(m.cur), speedHi+1e-12, m)
}

// dest returns the next vertex of the current route, first routing to a
// fresh random destination when the last route is done.
func (m *MapRoute) dest(geo.Point) geo.Point {
	if len(m.queue) == 0 {
		for {
			dst := m.s.IntN(m.g.Len())
			if dst == m.cur {
				continue
			}
			path, _, ok := m.g.ShortestPath(m.cur, dst)
			if !ok || len(path) < 2 {
				continue // unreachable; cannot happen on connected graphs
			}
			m.queue = append(m.queue[:0], path[1:]...)
			break
		}
	}
	m.cur = m.queue[0]
	m.queue = m.queue[1:]
	return m.g.At(m.cur)
}

// pause is 0 mid-route, so the node drives through intersections, and a
// uniform draw at the destination.
func (m *MapRoute) pause() float64 {
	if len(m.queue) > 0 {
		return 0
	}
	return m.uniformLegs.pause()
}
