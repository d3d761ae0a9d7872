package stats

import (
	"math"
	"testing"

	"sdsrp/internal/obs"
	"sdsrp/internal/rng"
)

// TestIntermeetingFoldsContactEvents checks the sink samples per pair: a
// pair's first contact adds nothing, each later contact_up adds the gap
// since that pair's last contact_down, and other events are ignored.
func TestIntermeetingFoldsContactEvents(t *testing.T) {
	var im Intermeeting
	for _, ev := range []obs.Event{
		{T: 1, Type: obs.ContactUp, Node: 0, Peer: 1},
		{T: 2, Type: obs.ContactUp, Node: 1, Peer: 2},
		{T: 5, Type: obs.ContactDown, Node: 0, Peer: 1},
		{T: 6, Type: obs.MessageCreated, Node: 0, Peer: 1},
		{T: 9, Type: obs.ContactDown, Node: 1, Peer: 2},
		{T: 15, Type: obs.ContactUp, Node: 0, Peer: 1},
		{T: 39, Type: obs.ContactUp, Node: 1, Peer: 2},
	} {
		im.Emit(ev)
	}
	if im.Count() != 2 || im.Mean() != 20 { // gaps 10 and 30
		t.Fatalf("count=%d mean=%v, want 2 samples of mean 20", im.Count(), im.Mean())
	}
}

func TestIntermeetingEmpty(t *testing.T) {
	var im Intermeeting
	if im.Count() != 0 || im.Mean() != 0 || im.Lambda() != 0 {
		t.Fatal("empty recorder not zero")
	}
	if im.Histogram(10) != nil {
		t.Fatal("Histogram on empty recorder not nil")
	}
	if !math.IsNaN(im.ExpFitError()) {
		t.Fatal("ExpFitError on empty recorder not NaN")
	}
}

func TestIntermeetingIgnoresNegative(t *testing.T) {
	var im Intermeeting
	im.Add(-1)
	im.Add(math.NaN())
	im.Add(5)
	if im.Count() != 1 || im.Mean() != 5 {
		t.Fatalf("count=%d mean=%v", im.Count(), im.Mean())
	}
}

func TestIntermeetingMeanLambda(t *testing.T) {
	var im Intermeeting
	for _, v := range []float64{10, 20, 30} {
		im.Add(v)
	}
	if im.Mean() != 20 {
		t.Fatalf("Mean = %v", im.Mean())
	}
	if math.Abs(im.Lambda()-0.05) > 1e-12 {
		t.Fatalf("Lambda = %v", im.Lambda())
	}
}

func TestExponentialSamplesFitWell(t *testing.T) {
	s := rng.New(5)
	var im Intermeeting
	const mean = 300.0
	for i := 0; i < 50000; i++ {
		im.Add(s.Exp(mean))
	}
	if math.Abs(im.Mean()-mean) > mean*0.03 {
		t.Fatalf("Mean = %v, want ~%v", im.Mean(), mean)
	}
	if err := im.ExpFitError(); err > 0.02 {
		t.Fatalf("ExpFitError = %v for true exponential data", err)
	}
}

func TestUniformSamplesFitBadly(t *testing.T) {
	s := rng.New(6)
	var im Intermeeting
	for i := 0; i < 50000; i++ {
		im.Add(s.Uniform(100, 101)) // far from exponential
	}
	if err := im.ExpFitError(); err < 0.1 {
		t.Fatalf("ExpFitError = %v, expected clearly bad fit", err)
	}
}

func TestHistogram(t *testing.T) {
	var im Intermeeting
	for _, v := range []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10} {
		im.Add(v)
	}
	bins := im.Histogram(5)
	if len(bins) != 5 {
		t.Fatalf("bins = %d", len(bins))
	}
	total := 0
	for _, b := range bins {
		total += b.Count
		if b.Hi <= b.Lo {
			t.Fatalf("bad bin bounds %v", b)
		}
	}
	if total != 10 {
		t.Fatalf("histogram lost samples: %d", total)
	}
	// Density integrates to ~1.
	var integral float64
	for _, b := range bins {
		integral += b.Density * (b.Hi - b.Lo)
	}
	if math.Abs(integral-1) > 1e-9 {
		t.Fatalf("density integral = %v", integral)
	}
}

func TestCCDF(t *testing.T) {
	var im Intermeeting
	for _, v := range []float64{1, 2, 3, 4} {
		im.Add(v)
	}
	got := im.CCDF([]float64{0, 1, 2.5, 4, 5})
	want := []float64{1, 0.75, 0.5, 0, 0}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Fatalf("CCDF[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}
