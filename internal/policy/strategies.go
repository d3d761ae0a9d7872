package policy

import (
	"fmt"

	"sdsrp/internal/core"
	"sdsrp/internal/msg"
)

// FIFO is the paper's plain "Spray and Wait" buffer management: transmit the
// oldest-received message first and evict the oldest-received message on
// overflow (newcomers always win).
type FIFO struct{}

// Name implements Policy.
func (FIFO) Name() string { return "SprayAndWait" }

// SendScore implements Policy: older copies transmit first.
func (FIFO) SendScore(_ View, s *msg.Stored) float64 { return -s.ReceivedAt }

// DropScore implements Policy: older copies evict first.
func (FIFO) DropScore(_ View, s *msg.Stored) float64 { return s.ReceivedAt }

// TTLRatio is "Spray and Wait-O": priority is the ratio between the
// remaining TTL and the initial TTL. Fresh messages are transmitted first;
// messages about to expire are evicted first.
type TTLRatio struct{}

// Name implements Policy.
func (TTLRatio) Name() string { return "SprayAndWait-O" }

func ttlRatio(v View, s *msg.Stored) float64 {
	if s.M.TTL <= 0 {
		return 0
	}
	return s.M.Remaining(v.Now()) / s.M.TTL
}

// SendScore implements Policy.
func (TTLRatio) SendScore(v View, s *msg.Stored) float64 { return ttlRatio(v, s) }

// DropScore implements Policy.
func (TTLRatio) DropScore(v View, s *msg.Stored) float64 { return ttlRatio(v, s) }

// CopiesRatio is "Spray and Wait-C": priority is the ratio between the
// current copy count and the initial copy count. Token-rich messages are
// transmitted first; wait-phase messages are evicted first.
type CopiesRatio struct{}

// Name implements Policy.
func (CopiesRatio) Name() string { return "SprayAndWait-C" }

func copiesRatio(s *msg.Stored) float64 {
	if s.M.InitialCopies <= 0 {
		return 0
	}
	return float64(s.Copies) / float64(s.M.InitialCopies)
}

// SendScore implements Policy.
func (CopiesRatio) SendScore(_ View, s *msg.Stored) float64 { return copiesRatio(s) }

// DropScore implements Policy.
func (CopiesRatio) DropScore(_ View, s *msg.Stored) float64 { return copiesRatio(s) }

// SDSRP is the paper's strategy: both orders are driven by the Eq. 10
// utility, evaluated with the node's distributed estimates of m̂_i and n̂_i.
type SDSRP struct{}

// Name implements Policy.
func (SDSRP) Name() string { return "SDSRP" }

func sdsrpScore(v View, s *msg.Stored) float64 {
	lambda := v.Lambda()
	if lambda <= 0 {
		// No rate information yet: fall back to remaining-TTL ordering so
		// early-run behaviour is sane rather than arbitrary.
		return s.M.Remaining(v.Now()) * 1e-12
	}
	return core.Priority(v.SeenEstimate(s), v.LiveEstimate(s), s.Copies,
		s.M.Remaining(v.Now()), v.Nodes(), lambda)
}

// SendScore implements Policy.
func (SDSRP) SendScore(v View, s *msg.Stored) float64 { return sdsrpScore(v, s) }

// DropScore implements Policy.
func (SDSRP) DropScore(v View, s *msg.Stored) float64 { return sdsrpScore(v, s) }

// SDSRPTaylor is SDSRP with the Eq. 13 k-term Taylor approximation instead
// of the closed-form utility — the paper's reduced-computation variant.
type SDSRPTaylor struct {
	K int
}

// Name implements Policy.
func (p SDSRPTaylor) Name() string { return fmt.Sprintf("SDSRP-Taylor%d", p.K) }

func (p SDSRPTaylor) score(v View, s *msg.Stored) float64 {
	lambda := v.Lambda()
	if lambda <= 0 {
		return s.M.Remaining(v.Now()) * 1e-12
	}
	live := v.LiveEstimate(s)
	pT := core.ProbDelivered(v.SeenEstimate(s), v.Nodes())
	pR := core.ProbWillDeliver(live, s.Copies, s.M.Remaining(v.Now()), v.Nodes(), lambda)
	return core.TaylorPriority(pT, pR, live, p.K)
}

// SendScore implements Policy.
func (p SDSRPTaylor) SendScore(v View, s *msg.Stored) float64 { return p.score(v, s) }

// DropScore implements Policy.
func (p SDSRPTaylor) DropScore(v View, s *msg.Stored) float64 { return p.score(v, s) }

// OracleUtility is the GBSD-style upper bound: the Eq. 10 utility computed
// from the simulator's ground-truth m_i and n_i instead of the distributed
// estimates. Only meaningful with a View wired to the oracle, which
// world.Build gives policies whose name starts with "Oracle".
type OracleUtility struct{}

// Name implements Policy.
func (OracleUtility) Name() string { return "OracleUtility" }

func oracleScore(v View, s *msg.Stored) float64 {
	lambda := v.Lambda()
	if lambda <= 0 {
		return s.M.Remaining(v.Now()) * 1e-12
	}
	return core.Priority(v.TrueSeen(s), v.TrueLive(s), s.Copies,
		s.M.Remaining(v.Now()), v.Nodes(), lambda)
}

// SendScore implements Policy.
func (OracleUtility) SendScore(v View, s *msg.Stored) float64 { return oracleScore(v, s) }

// DropScore implements Policy.
func (OracleUtility) DropScore(v View, s *msg.Stored) float64 { return oracleScore(v, s) }
