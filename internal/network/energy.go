package network

// EnergyConfig models per-node batteries, following the ONE simulator's
// energy module: scanning and transferring drain a finite budget and a
// depleted node's radio goes dark (the node keeps its buffer but neither
// scans nor transfers). A zero Capacity disables the model.
type EnergyConfig struct {
	// Capacity is the initial battery budget per node, in joules.
	Capacity float64
	// ScanPerSec drains continuously while the radio is on (discovery
	// beaconing), charged per scan tick.
	ScanPerSec float64
	// TxPerSec drains while sending; RxPerSec while receiving. Both are
	// charged per transfer for its actual duration (including the elapsed
	// part of aborted transfers).
	TxPerSec float64
	RxPerSec float64
}

// Enabled reports whether the energy model is active.
func (e EnergyConfig) Enabled() bool { return e.Capacity > 0 }

// energyState tracks the fleet's batteries inside the Manager.
type energyState struct {
	cfg   EnergyConfig
	level []float64
	dead  int
	used  float64
	// firstDeath is when the first battery ran out (0 while none has):
	// simulation time never decreases, so the first death is the earliest.
	firstDeath float64
}

func newEnergyState(cfg EnergyConfig, n int) *energyState {
	if !cfg.Enabled() {
		return nil
	}
	s := &energyState{cfg: cfg, level: make([]float64, n)}
	for i := range s.level {
		s.level[i] = cfg.Capacity
	}
	return s
}

// alive reports whether node id still has battery.
func (s *energyState) alive(id int) bool { return s == nil || s.level[id] > 0 }

// drain charges amount joules to node id at time now, recording death when
// the battery crosses zero. A battery holding less than amount gives up
// only what it holds.
func (s *energyState) drain(id int, amount, now float64) {
	if s == nil || amount <= 0 || s.level[id] <= 0 {
		return
	}
	spent := min(amount, s.level[id])
	s.used += spent
	s.level[id] -= spent
	if s.level[id] <= 0 {
		if s.dead == 0 {
			s.firstDeath = now
		}
		s.dead++
	}
}

// EnergyReport summarizes battery state at a point in time. The json tags
// are its keys in the run journal (internal/experiment).
type EnergyReport struct {
	Enabled    bool    `json:"enabled"`
	DeadNodes  int     `json:"dead_nodes"`
	TotalUsed  float64 `json:"total_used"`
	MeanLevel  float64 `json:"mean_level"`  // mean remaining fraction across nodes
	FirstDeath float64 `json:"first_death"` // time of the first depletion (0 when none)
}

// EnergyReport returns the manager's battery summary.
func (m *Manager) EnergyReport() EnergyReport {
	s := m.energy
	if s == nil {
		return EnergyReport{}
	}
	var frac float64
	for _, v := range s.level {
		frac += v / s.cfg.Capacity
	}
	return EnergyReport{
		Enabled:    true,
		DeadNodes:  s.dead,
		TotalUsed:  s.used,
		MeanLevel:  frac / float64(len(s.level)),
		FirstDeath: s.firstDeath,
	}
}
