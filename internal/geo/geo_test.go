package geo

import (
	"math"
	"testing"
	"testing/quick"
)

func TestPointDist(t *testing.T) {
	p := Point{0, 0}
	q := Point{3, 4}
	if d := p.Dist(q); d != 5 {
		t.Fatalf("Dist = %v, want 5", d)
	}
	if d2 := p.Dist2(q); d2 != 25 {
		t.Fatalf("Dist2 = %v, want 25", d2)
	}
}

func TestLerp(t *testing.T) {
	p := Point{0, 0}
	q := Point{10, 20}
	if mid := p.Lerp(q, 0.5); mid != (Point{5, 10}) {
		t.Fatalf("Lerp(0.5) = %v", mid)
	}
	if start := p.Lerp(q, 0); start != p {
		t.Fatalf("Lerp(0) = %v", start)
	}
	if end := p.Lerp(q, 1); end != q {
		t.Fatalf("Lerp(1) = %v", end)
	}
}

func TestVecScaleAdd(t *testing.T) {
	p := Point{1, 1}.Add(Vec{2, 3}.Scale(2))
	if p != (Point{5, 7}) {
		t.Fatalf("Add/Scale = %v", p)
	}
}

func TestRect(t *testing.T) {
	r := NewRect(100, 50)
	if r.W() != 100 || r.H() != 50 {
		t.Fatalf("W,H = %v,%v", r.W(), r.H())
	}
	if !r.Contains(Point{0, 0}) || !r.Contains(Point{100, 50}) {
		t.Fatal("Contains rejects corners")
	}
	if r.Contains(Point{100.01, 0}) {
		t.Fatal("Contains accepts outside point")
	}
	c := r.Clamp(Point{-5, 60})
	if c != (Point{0, 50}) {
		t.Fatalf("Clamp = %v", c)
	}
}

// Property: Dist is symmetric and satisfies the triangle inequality.
func TestPropertyDistMetric(t *testing.T) {
	f := func(ax, ay, bx, by, cx, cy float64) bool {
		// Bound magnitudes to avoid overflow-driven noise.
		clamp := func(v float64) float64 {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return 0
			}
			return math.Mod(v, 1e6)
		}
		a := Point{clamp(ax), clamp(ay)}
		b := Point{clamp(bx), clamp(by)}
		c := Point{clamp(cx), clamp(cy)}
		if math.Abs(a.Dist(b)-b.Dist(a)) > 1e-9 {
			return false
		}
		return a.Dist(c) <= a.Dist(b)+b.Dist(c)+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestDistLowerBound(t *testing.T) {
	// The bound must never exceed the true distance, across magnitudes from
	// sub-metre to continental, and must stay tight (within a part in 1e8).
	for _, d := range []float64{0, 1e-9, 0.001, 1, 3.5, 100, 4500, 1e7, 1e12} {
		lo := DistLowerBound(d * d)
		if lo > d {
			t.Fatalf("DistLowerBound(%g²) = %g exceeds the true distance", d, lo)
		}
		if d > 0 && lo < d*(1-1e-8)-1e-8 {
			t.Fatalf("DistLowerBound(%g²) = %g is needlessly loose", d, lo)
		}
	}
	// Exact squares round-trip through sqrt exactly, so only the explicit
	// slack separates the bound from the distance.
	if lo := DistLowerBound(25); lo >= 5 || lo < 5-1e-6 {
		t.Fatalf("DistLowerBound(25) = %g, want just under 5", lo)
	}
	if err := quick.Check(func(x, y float64) bool {
		d2 := x*x + y*y
		if math.IsInf(d2, 0) || math.IsNaN(d2) {
			return true
		}
		return DistLowerBound(d2) <= math.Hypot(x, y)
	}, nil); err != nil {
		t.Fatal(err)
	}
}
