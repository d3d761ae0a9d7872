package network

import (
	"math"
	"testing"

	"sdsrp/internal/rng"
)

// sampleAt makes tick the planner's current tick at time now, samples
// every node and assigns its bucket, as kinetic.check does for awake nodes.
func (s *kinetic) sampleAt(tick int64, now float64) {
	s.tick = tick
	for i := range s.sc.models {
		s.samplePos(i, now)
		if ci := int32(s.sc.cells.CellIndex(s.sc.positions[i])); ci != s.cellOf[i] {
			s.moveCell(i, ci)
		}
	}
}

// TestCertificatesNeverSkipAContact is the safety property of the kinetic
// planner's certificates, its two park deadlines, which are the MaxSpeed
// motion bound (boundTicks). At every tick of every family of listWorlds
// and seed it computes each pair's deadline K (pairTicks) and each node's
// cell deadline (cellTicks), and steps a twin fleet, built from the same
// seeds, through the ticks the deadline skips plus the wake tick itself,
// the one-tick margin every deadline keeps: the pair must stay out of
// range, and the node's CellIndex unchanged. A deadline one tick longer
// fails here. The families must also reach positive pair and cell
// deadlines, clamped positions and static peers.
func TestCertificatesNeverSkipAContact(t *testing.T) {
	const ticks, never = 1200, math.MaxInt32
	var pairs, cells, clamped, statics int
	for _, w := range listWorlds() {
		for seed := uint64(1); seed <= 3; seed++ {
			twin := w.models(t, rng.New(seed))
			s := newKinetic(testScanner(t, w.models(t, rng.New(seed)), w.area, w.cell, w.radio, w.interval, nil))
			n, g, r2 := len(twin), &s.sc.cells, w.radio*w.radio
			// Walk the twin forward once; nextCell[m][i] is the first tick
			// after m at which node i's bucket differs from its bucket at m,
			// nextIn[m][p] the first tick after m at which pair p is in range
			// (never when neither happens within the run).
			traj := trajectory(twin, ticks, w.interval)
			nextCell := make([][]int32, ticks+1)
			nextIn := make([][]int32, ticks+1)
			for m := ticks; m >= 0; m-- {
				nextCell[m] = make([]int32, n)
				nextIn[m] = make([]int32, 0, n*(n-1)/2)
				for i := 0; i < n; i++ {
					switch {
					case m == ticks:
						nextCell[m][i] = never
					case g.CellIndex(traj[m+1][i]) != g.CellIndex(traj[m][i]):
						nextCell[m][i] = int32(m + 1)
					default:
						nextCell[m][i] = nextCell[m+1][i]
					}
					for j := i + 1; j < n; j++ {
						p := len(nextIn[m])
						switch {
						case m == ticks:
							nextIn[m] = append(nextIn[m], never)
						case traj[m+1][i].Dist2(traj[m+1][j]) <= r2:
							nextIn[m] = append(nextIn[m], int32(m+1))
						default:
							nextIn[m] = append(nextIn[m], nextIn[m+1][p])
						}
					}
				}
			}
			for m := 0; m <= ticks; m++ {
				now := float64(m) * w.interval
				s.sampleAt(int64(m+1), now)
				for i := 0; i < n; i++ {
					pos := s.sc.positions[i]
					if pos != traj[m][i] {
						t.Fatalf("%s seed %d: twin models diverge at tick %d", w.name, seed, m)
					}
					k := s.cellTicks(i)
					if int64(m)+k >= int64(nextCell[m][i]) {
						t.Fatalf("%s seed %d tick %d: node %d parks %d ticks on its bucket but leaves it at tick %d",
							w.name, seed, m, i, k, nextCell[m][i])
					}
					if k > 0 {
						cells++
					}
					if g.BoundaryDist(pos, int(s.cellOf[i])) <= 0 {
						clamped++
					}
				}
				p := 0
				for i := 0; i < n; i++ {
					for j := i + 1; j < n; j++ {
						d2 := s.sc.positions[i].Dist2(s.sc.positions[j])
						k := s.pairTicks(i, j, d2, w.radio)
						if int64(m)+k >= int64(nextIn[m][p]) {
							t.Fatalf("%s seed %d tick %d: pair (%d,%d) parks %d ticks but is in range at tick %d",
								w.name, seed, m, i, j, k, nextIn[m][p])
						}
						p++
						if k > 0 {
							pairs++
						}
						if d2 > r2 && (s.speed[i] == 0 || s.speed[j] == 0) {
							statics++
						}
					}
				}
			}
		}
	}
	t.Logf("%d positive pair deadlines, %d out-of-range pairs with a static peer; %d positive cell deadlines, %d clamped positions",
		pairs, statics, cells, clamped)
	if pairs == 0 || cells == 0 || clamped == 0 || statics == 0 {
		t.Errorf("a family lost its coverage: %d positive pair deadlines, %d positive cell deadlines, %d clamped, %d static",
			pairs, cells, clamped, statics)
	}
}
