// Package rng provides deterministic, splittable random number streams.
//
// A simulation run owns a root Stream derived from the scenario seed. Each
// subsystem (mobility, traffic, protocol tie-breaking, trace synthesis)
// derives an independent child stream by name, so adding randomness to one
// subsystem never perturbs the draw sequence of another. This keeps whole
// experiment sweeps reproducible run-to-run and bisection-friendly.
//
//lint:shard-safe streams are value-owned and split purely; this package defines the substream discipline the engine is checked against
package rng

import (
	"hash/fnv"
	"math"
	"math/rand/v2"
)

// Stream is a deterministic random stream. It is not safe for concurrent
// use; derive one stream per goroutine with Split or SplitIndex.
type Stream struct {
	r *rand.Rand
	// fingerprint identifies the stream's seed lineage. Splitting hashes the
	// fingerprint with a label, so children depend only on (lineage, label),
	// never on how many values were drawn from the parent.
	fingerprint uint64
}

// New returns a root stream for the given seed.
func New(seed uint64) *Stream { return newChild(seed) }

// Split derives an independent child stream from this stream's lineage and
// a label. Splitting is pure: it does not consume randomness from s.
func (s *Stream) Split(label string) *Stream {
	h := fnv.New64a()
	var buf [8]byte
	putUint64(buf[:], s.fingerprint)
	h.Write(buf[:])
	h.Write([]byte(label))
	return newChild(h.Sum64())
}

// SplitIndex derives an independent child stream by label and integer index,
// for per-node or per-run streams.
func (s *Stream) SplitIndex(label string, i int) *Stream {
	h := fnv.New64a()
	var buf [8]byte
	putUint64(buf[:], s.fingerprint)
	h.Write(buf[:])
	h.Write([]byte(label))
	putUint64(buf[:], uint64(i)+0x51ed2701)
	h.Write(buf[:])
	return newChild(h.Sum64())
}

func newChild(seed uint64) *Stream {
	return &Stream{
		r:           rand.New(rand.NewPCG(seed, seed^0xda942042e4dd58b5)),
		fingerprint: seed,
	}
}

func putUint64(b []byte, v uint64) {
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (8 * i))
	}
}

// Float64 returns a uniform value in [0,1).
func (s *Stream) Float64() float64 { return s.r.Float64() }

// Uniform returns a uniform value in [lo,hi).
func (s *Stream) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*s.r.Float64()
}

// IntN returns a uniform int in [0,n). n must be > 0.
func (s *Stream) IntN(n int) int { return s.r.IntN(n) }

// IntRange returns a uniform int in [lo,hi]. Requires hi >= lo.
func (s *Stream) IntRange(lo, hi int) int {
	return lo + s.r.IntN(hi-lo+1)
}

// Exp returns an exponentially distributed value with the given mean.
// mean must be > 0.
func (s *Stream) Exp(mean float64) float64 {
	// Inverse CDF; 1-Float64() avoids log(0).
	return -mean * math.Log(1-s.r.Float64())
}

// Normal returns a normally distributed value with the given mean and
// standard deviation.
func (s *Stream) Normal(mean, stddev float64) float64 {
	return mean + stddev*s.r.NormFloat64()
}

// Bool returns true with probability p.
func (s *Stream) Bool(p float64) bool { return s.r.Float64() < p }

// Perm returns a random permutation of [0,n).
func (s *Stream) Perm(n int) []int { return s.r.Perm(n) }

// Shuffle pseudo-randomizes the order of n elements using swap.
func (s *Stream) Shuffle(n int, swap func(i, j int)) { s.r.Shuffle(n, swap) }

// WeightedIndex picks index i with probability weights[i]/sum(weights).
// Weights must be non-negative with a positive sum.
func (s *Stream) WeightedIndex(weights []float64) int {
	var sum float64
	for _, w := range weights {
		sum += w
	}
	x := s.r.Float64() * sum
	for i, w := range weights {
		x -= w
		if x < 0 {
			return i
		}
	}
	return len(weights) - 1
}
