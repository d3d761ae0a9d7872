package core

import (
	"math"
	"testing"
	"testing/quick"
)

const (
	tN      = 100
	tLambda = 1.0 / 1200.0 // mean intermeeting 20 min
)

func TestExposureBasics(t *testing.T) {
	// C=1 (wait phase): A = R exactly.
	if a := Exposure(1, 5000, tN, tLambda); a != 5000 {
		t.Fatalf("Exposure(C=1) = %v, want 5000", a)
	}
	// More copies, same TTL: more spray opportunities, larger exposure
	// (while R dominates the correction term).
	a16 := Exposure(16, 5000, tN, tLambda)
	a4 := Exposure(4, 5000, tN, tLambda)
	if a16 <= a4 {
		t.Fatalf("Exposure not increasing in copies: A(16)=%v A(4)=%v", a16, a4)
	}
	// Tiny remaining TTL with many copies: correction dominates, clamped to 0.
	if a := Exposure(64, 0.001, tN, tLambda); a != 0 {
		t.Fatalf("Exposure with no time = %v, want clamp to 0", a)
	}
	// Copies below 1 treated as 1.
	if Exposure(0, 100, tN, tLambda) != Exposure(1, 100, tN, tLambda) {
		t.Fatal("Exposure(0) != Exposure(1)")
	}
}

func TestProbDelivered(t *testing.T) {
	if p := ProbDelivered(0, tN); p != 0 {
		t.Fatalf("P(T) with m=0 is %v", p)
	}
	if p := ProbDelivered(99, tN); p != 1 {
		t.Fatalf("P(T) with m=N-1 is %v", p)
	}
	if p := ProbDelivered(49.5, tN); p != 0.5 {
		t.Fatalf("P(T) = %v, want 0.5", p)
	}
	if p := ProbDelivered(500, tN); p != 1 {
		t.Fatalf("P(T) not clamped above: %v", p)
	}
	if p := ProbDelivered(-3, tN); p != 0 {
		t.Fatalf("P(T) not clamped below: %v", p)
	}
}

func TestProbWillDeliverRange(t *testing.T) {
	for _, c := range []int{1, 2, 8, 32, 64} {
		for _, r := range []float64{0, 100, 5000, 18000} {
			for _, n := range []float64{1, 5, 50} {
				p := ProbWillDeliver(n, c, r, tN, tLambda)
				if p < 0 || p > 1 || math.IsNaN(p) {
					t.Fatalf("P(R) out of range: C=%d R=%v n=%v -> %v", c, r, n, p)
				}
			}
		}
	}
	// Zero remaining time: cannot deliver.
	if p := ProbWillDeliver(10, 1, 0, tN, tLambda); p != 0 {
		t.Fatalf("P(R) with R=0 is %v", p)
	}
	// More live copies => higher delivery probability.
	p1 := ProbWillDeliver(1, 4, 3000, tN, tLambda)
	p10 := ProbWillDeliver(10, 4, 3000, tN, tLambda)
	if p10 <= p1 {
		t.Fatalf("P(R) not increasing in live copies: %v vs %v", p1, p10)
	}
}

// Eq. 10 and Eq. 11 are algebraically the same quantity; verify over a grid
// plus random inputs.
func TestEq10MatchesEq11(t *testing.T) {
	check := func(seen, live float64, copies int, remaining float64) {
		u10 := Priority(seen, live, copies, remaining, tN, tLambda)
		pT := ProbDelivered(seen, tN)
		pR := ProbWillDeliver(live, copies, remaining, tN, tLambda)
		u11 := PriorityFromProbabilities(pT, pR, live)
		if math.Abs(u10-u11) > 1e-12*(1+math.Abs(u10)) {
			t.Fatalf("Eq10=%v Eq11=%v (m=%v n=%v C=%d R=%v)", u10, u11, seen, live, copies, remaining)
		}
	}
	for _, seen := range []float64{0, 1, 10, 50, 98} {
		for _, live := range []float64{1, 2, 8, 40} {
			for _, copies := range []int{1, 2, 16, 64} {
				for _, remaining := range []float64{10, 1000, 18000} {
					check(seen, live, copies, remaining)
				}
			}
		}
	}
	f := func(seenRaw, liveRaw uint8, copiesRaw uint8, remRaw uint16) bool {
		seen := float64(seenRaw % 99)
		live := float64(liveRaw%50 + 1)
		copies := int(copiesRaw)%64 + 1
		remaining := float64(remRaw)
		u10 := Priority(seen, live, copies, remaining, tN, tLambda)
		pT := ProbDelivered(seen, tN)
		pR := ProbWillDeliver(live, copies, remaining, tN, tLambda)
		u11 := PriorityFromProbabilities(pT, pR, live)
		return math.Abs(u10-u11) <= 1e-12*(1+math.Abs(u10))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Priority decreases monotonically with the delivered probability (more
// nodes have seen it => less urgent), Section III-B.
func TestPriorityMonotoneInSeen(t *testing.T) {
	prev := math.Inf(1)
	for seen := 0.0; seen <= 98; seen++ {
		u := Priority(seen, 5, 8, 6000, tN, tLambda)
		if u > prev+1e-15 {
			t.Fatalf("priority increased with seen at m=%v: %v > %v", seen, u, prev)
		}
		prev = u
	}
}

// More live copies in the network => lower priority (paper: "a greater
// amount of copies of message i in the network leads to lower priority").
// This holds on the exp(−λnA) side once λnA ≥ 1, i.e. past the peak; below
// it the utility trade-off is non-monotone by design (Fig. 4). We verify the
// derivative sign in the past-peak regime.
func TestPriorityDecreasesWithLiveCopiesPastPeak(t *testing.T) {
	copies, remaining := 8, 15000.0
	a := Exposure(copies, remaining, tN, tLambda)
	nStar := 1 / (tLambda * a) // peak location in n
	prev := math.Inf(1)
	for n := math.Ceil(nStar); n < nStar+40; n++ {
		u := Priority(3, n, copies, remaining, tN, tLambda)
		if u > prev+1e-18 {
			t.Fatalf("priority increased with n=%v past peak: %v > %v", n, u, prev)
		}
		prev = u
	}
}

// The Fig. 4 shape: as a function of pR, utility rises to a peak at
// pR = 1 − 1/e and falls after.
func TestPeakAtOneMinusInvE(t *testing.T) {
	u := func(pR float64) float64 { return PriorityFromProbabilities(0.3, pR, 7) }
	peak := u(PeakPR)
	for _, pR := range []float64{0, 0.1, 0.3, 0.5, 0.6, 0.64, 0.75, 0.9, 0.99} {
		if u(pR) > peak+1e-12 {
			t.Fatalf("u(%v)=%v exceeds u(peak)=%v", pR, u(pR), peak)
		}
	}
	// Strictly increasing before, strictly decreasing after.
	if !(u(0.2) < u(0.4) && u(0.4) < u(0.6)) {
		t.Fatal("not increasing before peak")
	}
	if !(u(0.7) > u(0.8) && u(0.8) > u(0.95)) {
		t.Fatal("not decreasing after peak")
	}
}

func TestPriorityBoundaryValues(t *testing.T) {
	// Fully seen message: zero priority.
	if u := Priority(99, 5, 8, 5000, tN, tLambda); u != 0 {
		t.Fatalf("priority of fully-seen message = %v", u)
	}
	// Expired message: zero priority.
	if u := Priority(3, 5, 8, 0, tN, tLambda); u != 0 {
		t.Fatalf("priority of expired message = %v", u)
	}
	// Eq. 11 guards.
	if PriorityFromProbabilities(0.5, 1.0, 3) != 0 {
		t.Fatal("Eq11 at pR=1 not 0")
	}
	if PriorityFromProbabilities(0.5, 0.5, 0) != 0 {
		t.Fatal("Eq11 with n=0 not 0")
	}
	if PriorityFromProbabilities(0.5, -0.1, 3) != 0 {
		t.Fatal("Eq11 with negative pR not 0")
	}
}

// Taylor truncation converges to the closed form from below as k grows.
func TestTaylorConvergence(t *testing.T) {
	pT, live := 0.2, 6.0
	for _, pR := range []float64{0.05, 0.3, PeakPR, 0.8, 0.95} {
		ideal := PriorityFromProbabilities(pT, pR, live)
		prevErr := math.Inf(1)
		prevVal := 0.0
		for k := 1; k <= 60; k++ {
			v := TaylorPriority(pT, pR, live, k)
			if v < prevVal-1e-15 {
				t.Fatalf("Taylor not monotone in k at pR=%v k=%d", pR, k)
			}
			prevVal = v
			err := math.Abs(v - ideal)
			if err > prevErr+1e-15 {
				t.Fatalf("Taylor error grew at pR=%v k=%d", pR, k)
			}
			prevErr = err
		}
		if prevErr > 1e-3*(1+ideal) && pR < 0.9 {
			t.Fatalf("Taylor k=60 still off by %v at pR=%v", prevErr, pR)
		}
	}
}

func TestTaylorGuards(t *testing.T) {
	if TaylorPriority(0.1, 0.5, 5, 0) != 0 {
		t.Fatal("k=0 not 0")
	}
	if TaylorPriority(0.1, 1.0, 5, 3) != 0 {
		t.Fatal("pR=1 not 0")
	}
}

// Eq. 12: where the peak condition evaluates to zero, P(R) must equal
// 1 − 1/e.
func TestPeakExposureConditionConsistency(t *testing.T) {
	copies := 8
	remaining := 10000.0
	// Find n where the condition crosses zero, by bisection over n.
	lo, hi := 0.01, 500.0
	for i := 0; i < 200; i++ {
		mid := (lo + hi) / 2
		if PeakExposureCondition(mid, copies, remaining, tN, tLambda) > 0 {
			lo = mid
		} else {
			hi = mid
		}
	}
	nStar := (lo + hi) / 2
	pR := ProbWillDeliver(nStar, copies, remaining, tN, tLambda)
	if math.Abs(pR-PeakPR) > 1e-6 {
		t.Fatalf("P(R) at Eq.12 root = %v, want %v", pR, PeakPR)
	}
}

// The paper's Fig. 2 insight: a message whose copies and TTL are both "up
// soon" can out-rank one with plenty of both, because the latter sits past
// the utility peak. Reproduce a concrete instance.
func TestFig2Inversion(t *testing.T) {
	// Message i: many copies and long TTL, already widely spread.
	ui := Priority(60, 40, 16, 15000, tN, tLambda)
	// Message j: few copies, short TTL, barely spread — before the peak.
	uj := Priority(4, 3, 2, 2500, tN, tLambda)
	if uj <= ui {
		t.Fatalf("expected the scarce/urgent message to win: ui=%v uj=%v", ui, uj)
	}
	// Early on (node c of Fig. 2), while both messages are still below the
	// utility peak (λ·n·A < 1), the roomier message wins instead.
	uiEarly := Priority(2, 3, 16, 80, tN, tLambda)
	ujEarly := Priority(2, 3, 4, 60, tN, tLambda)
	if uiEarly <= ujEarly {
		t.Fatalf("expected the roomier message to win early: ui=%v uj=%v", uiEarly, ujEarly)
	}
}
