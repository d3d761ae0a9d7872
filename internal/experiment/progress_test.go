package experiment

import (
	"sync"
	"testing"

	"sdsrp/internal/config"
)

func tinyScenario(seed uint64) config.Scenario {
	sc := config.RandomWaypoint()
	sc.Nodes = 10
	sc.Duration = 600
	sc.TTL = 300
	sc.Area.Max.X = 500
	sc.Area.Max.Y = 500
	sc.Seed = seed
	return sc
}

// TestProgressStatsPayload checks the timed progress payload: done
// reaches total, elapsed is monotone per callback, ETA is non-negative and
// zero on the final run, and every run reports its own wall-clock.
func TestProgressStatsPayload(t *testing.T) {
	scs := []config.Scenario{tinyScenario(1), tinyScenario(2), tinyScenario(3)}
	var mu sync.Mutex
	var infos []ProgressInfo
	_, err := Options{Workers: 2, ProgressStats: func(p ProgressInfo) {
		mu.Lock()
		infos = append(infos, p)
		mu.Unlock()
	}}.RunScenarios(scs)
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != len(scs) {
		t.Fatalf("got %d callbacks, want %d", len(infos), len(scs))
	}
	seen := map[int]bool{}
	for _, p := range infos {
		if p.Total != len(scs) {
			t.Errorf("Total = %d, want %d", p.Total, len(scs))
		}
		if p.Done < 1 || p.Done > p.Total || seen[p.Done] {
			t.Errorf("bad or duplicate Done %d", p.Done)
		}
		seen[p.Done] = true
		if p.Elapsed < 0 || p.ETA < 0 || p.LastRunWall < 0 {
			t.Errorf("negative timing in %+v", p)
		}
		if p.Done == p.Total && p.ETA != 0 {
			t.Errorf("final callback has nonzero ETA %v", p.ETA)
		}
	}
}
