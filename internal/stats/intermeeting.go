package stats

import (
	"math"
	"sort"

	"sdsrp/internal/obs"
)

// Intermeeting records intermeeting-time samples (the gap between the end of
// one contact and the start of the next for a node pair) and fits an
// exponential distribution to them, reproducing the paper's Fig. 3 analysis.
// It is an obs.Tracer: attached to a run (world.WithTracer), it samples the
// run's contact events. The zero value is ready to use.
type Intermeeting struct {
	samples []float64
	sum     float64
	// lastEnd holds each pair's last contact_down time.
	lastEnd map[[2]int]float64
}

// Emit implements obs.Tracer: a contact_up for a pair that met before adds
// the gap since that pair's last contact_down. Other events are ignored.
func (im *Intermeeting) Emit(ev obs.Event) {
	k := [2]int{ev.Node, ev.Peer}
	switch ev.Type {
	case obs.ContactUp:
		if end, ok := im.lastEnd[k]; ok {
			im.Add(ev.T - end)
		}
	case obs.ContactDown:
		if im.lastEnd == nil {
			im.lastEnd = make(map[[2]int]float64)
		}
		im.lastEnd[k] = ev.T
	}
}

// Add records one intermeeting sample in seconds. Negative samples are
// ignored (they indicate overlapping contacts and carry no information).
func (im *Intermeeting) Add(sample float64) {
	if sample < 0 || math.IsNaN(sample) {
		return
	}
	im.samples = append(im.samples, sample)
	im.sum += sample
}

// Count returns the number of samples.
func (im *Intermeeting) Count() int { return len(im.samples) }

// Mean returns E(I), the sample mean, or 0 with no samples.
func (im *Intermeeting) Mean() float64 {
	if len(im.samples) == 0 {
		return 0
	}
	return im.sum / float64(len(im.samples))
}

// Lambda returns the fitted exponential rate 1/E(I), or 0 with no samples.
func (im *Intermeeting) Lambda() float64 {
	m := im.Mean()
	if m == 0 {
		return 0
	}
	return 1 / m
}

// HistogramBin is one bin of an empirical density alongside the fitted
// exponential density at the bin centre.
type HistogramBin struct {
	Lo, Hi   float64
	Count    int
	Density  float64 // empirical: count / (n · width)
	ExpModel float64 // λ·exp(−λ·centre) with λ fitted from the mean
}

// Histogram bins the samples into nbins equal-width bins over [0, max].
// It returns nil with no samples.
func (im *Intermeeting) Histogram(nbins int) []HistogramBin {
	if len(im.samples) == 0 || nbins <= 0 {
		return nil
	}
	maxV := 0.0
	for _, v := range im.samples {
		if v > maxV {
			maxV = v
		}
	}
	if maxV == 0 {
		maxV = 1
	}
	width := maxV / float64(nbins)
	bins := make([]HistogramBin, nbins)
	lambda := im.Lambda()
	for i := range bins {
		bins[i].Lo = float64(i) * width
		bins[i].Hi = bins[i].Lo + width
		centre := bins[i].Lo + width/2
		bins[i].ExpModel = lambda * math.Exp(-lambda*centre)
	}
	for _, v := range im.samples {
		i := int(v / width)
		if i >= nbins {
			i = nbins - 1
		}
		bins[i].Count++
	}
	n := float64(len(im.samples))
	for i := range bins {
		bins[i].Density = float64(bins[i].Count) / (n * width)
	}
	return bins
}

// CCDF returns the empirical complementary CDF evaluated at each x:
// P(I > x).
func (im *Intermeeting) CCDF(xs []float64) []float64 {
	sorted := append([]float64(nil), im.samples...)
	sort.Float64s(sorted)
	out := make([]float64, len(xs))
	n := float64(len(sorted))
	if n == 0 {
		return out
	}
	for i, x := range xs {
		// Index of first sample > x.
		j := sort.SearchFloat64s(sorted, math.Nextafter(x, math.Inf(1)))
		out[i] = float64(len(sorted)-j) / n
	}
	return out
}

// ExpFitError returns the mean absolute difference between the empirical
// CCDF and the fitted exponential CCDF exp(−λx), sampled at the deciles of
// the data. Small values (≲0.05) indicate the exponential-tail hypothesis
// the paper relies on holds.
func (im *Intermeeting) ExpFitError() float64 {
	if len(im.samples) < 10 {
		return math.NaN()
	}
	sorted := append([]float64(nil), im.samples...)
	sort.Float64s(sorted)
	lambda := im.Lambda()
	var xs []float64
	for d := 1; d <= 9; d++ {
		xs = append(xs, sorted[len(sorted)*d/10])
	}
	emp := im.CCDF(xs)
	var err float64
	for i, x := range xs {
		err += math.Abs(emp[i] - math.Exp(-lambda*x))
	}
	return err / float64(len(xs))
}
