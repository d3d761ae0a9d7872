package core

// Prior is what the λ estimators of one world share: the prior mean
// intermeeting time in seconds, its weight in pseudo-samples, and N, the
// network size (read by CensusEstimator alone). Mean must be > 0 when
// Weight > 0. An estimator keeps a pointer to it, so a world's estimators
// hold one copy and it must not change once they are built.
type Prior struct {
	Mean   float64
	Weight float64
	Nodes  int
}

// LambdaEstimator maintains a node's running estimate of the mean
// intermeeting time E(I) from its own contact history (Definition 1). A
// configurable prior keeps the estimate sane before enough samples arrive;
// the prior is blended as Weight pseudo-samples.
type LambdaEstimator struct {
	prior   *Prior
	sum     float64
	n       int
	lastEnd map[int]float64 // peer -> end time of previous contact
}

// NewLambdaEstimator returns an estimator seeded with a prior mean
// intermeeting time (seconds) carrying the given pseudo-sample weight.
// priorMean must be > 0 when priorWeight > 0.
func NewLambdaEstimator(priorMean, priorWeight float64) *LambdaEstimator {
	e := new(LambdaEstimator)
	InitLambdaEstimator(e, &Prior{Mean: priorMean, Weight: priorWeight})
	return e
}

// InitLambdaEstimator fills e in place as NewLambdaEstimator would build
// it on prior p, for callers that keep a fleet's estimators in one slab
// with one Prior. The contact history map is made on the first contact
// end.
func InitLambdaEstimator(e *LambdaEstimator, p *Prior) {
	*e = LambdaEstimator{prior: p}
}

// OnContactStart records the start of a contact with peer at time now and
// harvests an intermeeting sample if a previous contact with that peer has
// ended before.
func (e *LambdaEstimator) OnContactStart(peer int, now float64) {
	if end, ok := e.lastEnd[peer]; ok {
		if s := now - end; s >= 0 {
			e.sum += s
			e.n++
		}
	}
}

// OnContactEnd records the end of a contact with peer at time now.
func (e *LambdaEstimator) OnContactEnd(peer int, now float64) {
	if e.lastEnd == nil {
		e.lastEnd = make(map[int]float64)
	}
	e.lastEnd[peer] = now
}

// Samples returns the number of real (non-prior) samples absorbed.
func (e *LambdaEstimator) Samples() int { return e.n }

// MeanI returns the blended estimate of E(I).
func (e *LambdaEstimator) MeanI() float64 {
	w := e.prior.Weight + float64(e.n)
	if w == 0 {
		return 0
	}
	return (e.prior.Mean*e.prior.Weight + e.sum) / w
}

// Lambda returns λ = 1/E(I), or 0 when no information is available.
func (e *LambdaEstimator) Lambda() float64 {
	m := e.MeanI()
	if m <= 0 {
		return 0
	}
	return 1 / m
}

// EIMin returns E(I_min) = E(I)/(N−1) for a network of nodes nodes (Eq. 3).
func (e *LambdaEstimator) EIMin(nodes int) float64 {
	return e.MeanI() / float64(nodes-1)
}

// CensusEstimator estimates λ from the node's contact *rate* rather than
// from completed intermeeting gaps: a node that has seen c contacts over
// elapsed time t with N−1 potential peers estimates the pairwise meeting
// rate as λ̂ = c / (t·(N−1)).
//
// Under the paper's own assumption (exponential pairwise intermeetings)
// this is unbiased, whereas averaging observed gaps (LambdaEstimator) is
// censored: pairs that fail to re-meet within the run contribute nothing,
// biasing E(I) low by whatever fraction of pairwise gaps outlast the
// experiment — a factor of ~7 at the paper's Table II scale. The prior is
// blended as Weight pseudo-contacts spread over the prior mean.
type CensusEstimator struct {
	prior     *Prior
	contacts  int
	lastEvent float64
}

// NewCensusEstimator returns a census estimator for a network of nodes
// nodes, seeded with a prior mean intermeeting time carrying priorWeight
// pseudo-contacts.
func NewCensusEstimator(priorMean, priorWeight float64, nodes int) *CensusEstimator {
	e := new(CensusEstimator)
	InitCensusEstimator(e, &Prior{Mean: priorMean, Weight: priorWeight, Nodes: nodes})
	return e
}

// InitCensusEstimator fills e in place as NewCensusEstimator would build
// it on prior p, for callers that keep a fleet's estimators in one slab
// with one Prior.
func InitCensusEstimator(e *CensusEstimator, p *Prior) {
	*e = CensusEstimator{prior: p}
}

// OnContactStart implements RateSource.
func (e *CensusEstimator) OnContactStart(_ int, now float64) {
	e.contacts++
	if now > e.lastEvent {
		e.lastEvent = now
	}
}

// OnContactEnd implements RateSource.
func (e *CensusEstimator) OnContactEnd(_ int, now float64) {
	if now > e.lastEvent {
		e.lastEvent = now
	}
}

// Samples returns the number of observed contacts.
func (e *CensusEstimator) Samples() int { return e.contacts }

// MeanI returns the blended estimate of the pairwise E(I).
func (e *CensusEstimator) MeanI() float64 {
	n1 := float64(e.prior.Nodes - 1)
	if n1 <= 0 {
		return e.prior.Mean
	}
	// Pseudo-observations: Weight contacts over the time they would take
	// at the prior rate.
	pseudoTime := e.prior.Weight * e.prior.Mean / n1
	num := float64(e.contacts) + e.prior.Weight
	den := e.lastEvent + pseudoTime
	if num <= 0 || den <= 0 {
		return 0
	}
	// Any-peer meeting rate num/den; pairwise rate is 1/(N−1) of it.
	return n1 * den / num
}

// Lambda returns 1/E(I), or 0 when no information is available.
func (e *CensusEstimator) Lambda() float64 {
	m := e.MeanI()
	if m <= 0 {
		return 0
	}
	return 1 / m
}

// EIMin returns E(I)/(N−1) (Eq. 3).
func (e *CensusEstimator) EIMin(nodes int) float64 {
	return e.MeanI() / float64(nodes-1)
}

var _ RateSource = (*CensusEstimator)(nil)

// maxSubtreeShift bounds the per-subtree doubling exponent in EstimateSeen;
// 2^30 already exceeds any realistic N by orders of magnitude and the result
// is clamped to N−1 anyway.
const maxSubtreeShift = 30

// EstimateSeen implements Eq. 15 / Fig. 6 with token-conservation bounds:
// given the ascending binary-split times of a copy's lineage, the copy's
// current token count C_i, the current time, and E(I_min), it estimates
// m_i(T_i) — how many nodes other than the source have seen the message.
//
// Each split spawned a subtree assumed to have kept splitting every
// E(I_min), so the subtree born at t_k holds 2^⌊(t−t_k)/E(I_min)⌋ carriers
// (for the most recent split that power is 2⁰ = 1, Eq. 15's "+1" term).
// Unlike the literal Eq. 15 we additionally cap each subtree by the spray
// tokens it received — a subtree handed T tokens can never exceed T
// carriers under Spray-and-Wait, so the estimate saturates near the spray
// budget L rather than at N−1 (unbounded doubling makes every aged message
// look fully spread, collapsing all priorities to zero; see DESIGN.md §2).
// Walking the lineage backwards, the split k steps before the latest one
// handed away about C_i·2^k tokens. The result is clamped to
// [len(sprayTimes), nodes−1]: the lineage itself proves one recipient per
// split, and no more than N−1 nodes exist to infect.
func EstimateSeen(sprayTimes []float64, copies int, now, eiMin float64, nodes int) int {
	n := len(sprayTimes)
	if n == 0 {
		return 0
	}
	if copies < 1 {
		copies = 1
	}
	m := 0
	if eiMin <= 0 {
		// No rate information: count only the proven lineage recipients.
		m = n
	} else {
		for j, t := range sprayTimes {
			// Clamp before the int conversion: (now-t)/eiMin can exceed the
			// float64-to-int range, whose conversion is implementation-defined.
			sf := (now - t) / eiMin
			shift := 0
			switch {
			case sf >= maxSubtreeShift:
				shift = maxSubtreeShift
			case sf > 0:
				shift = int(sf)
			}
			grown := 1 << uint(shift)
			bound := tokenBound(copies, n-1-j)
			if grown > bound {
				grown = bound
			}
			m += grown
		}
	}
	if m < n {
		m = n
	}
	if m > nodes-1 {
		m = nodes - 1
	}
	return m
}

// tokenBound approximates the tokens handed to the subtree k splits before
// the lineage's latest one: C_i·2^k, saturating instead of overflowing.
func tokenBound(copies, k int) int {
	if k >= maxSubtreeShift {
		return 1 << maxSubtreeShift
	}
	b := copies << uint(k)
	if b < 1 {
		return 1
	}
	return b
}

// LiveCopies is Eq. 14: n_i = m_i + 1 − d_i, clamped to at least 1 (the
// holder itself) and at most nodes.
func LiveCopies(seen, dropped, nodes int) int {
	n := seen + 1 - dropped
	if n < 1 {
		n = 1
	}
	if n > nodes {
		n = nodes
	}
	return n
}

// FixedRate is a RateSource with a known mean intermeeting time, used for
// oracle ablations where the true network-wide rate is supplied.
type FixedRate struct{ Mean float64 }

// MeanI returns the fixed mean.
func (f FixedRate) MeanI() float64 { return f.Mean }

// Lambda returns 1/mean.
func (f FixedRate) Lambda() float64 {
	if f.Mean <= 0 {
		return 0
	}
	return 1 / f.Mean
}

// EIMin returns mean/(N−1).
func (f FixedRate) EIMin(nodes int) float64 { return f.Mean / float64(nodes-1) }

// OnContactStart implements RateSource: a fixed rate learns nothing.
func (FixedRate) OnContactStart(int, float64) {}

// OnContactEnd implements RateSource: a fixed rate learns nothing.
func (FixedRate) OnContactEnd(int, float64) {}

// RateSource abstracts where λ comes from: a per-node LambdaEstimator or
// CensusEstimator (distributed, the paper's deployment story) or a
// FixedRate oracle (ablation). The routing host feeds it every link
// transition of its node through OnContactStart and OnContactEnd.
type RateSource interface {
	MeanI() float64
	Lambda() float64
	EIMin(nodes int) float64
	OnContactStart(peer int, now float64)
	OnContactEnd(peer int, now float64)
}

var (
	_ RateSource = (*LambdaEstimator)(nil)
	_ RateSource = FixedRate{}
)
