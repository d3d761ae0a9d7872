// Package rng provides deterministic, splittable random number streams.
//
// A simulation run owns a root Stream derived from the scenario seed. Each
// subsystem (mobility, traffic, protocol tie-breaking, trace synthesis)
// derives an independent child stream by name, so adding randomness to one
// subsystem never perturbs the draw sequence of another. This keeps whole
// experiment sweeps reproducible run-to-run and bisection-friendly.
//
// # Stream layout
//
// A Stream is 24 bytes with no pointers: its PCG state by value and its
// lineage fingerprint. Each draw wraps the PCG in a math/rand/v2 Rand on the
// stack, and splitting hashes the lineage with an inline FNV-64a, so neither
// seeding nor drawing allocates. New, Split and SplitIndex return one
// freshly allocated stream; SplitIndexInto seeds a stream the caller owns,
// such as one element of a per-node slab, with the same draws SplitIndex
// would give.
//
//lint:shard-safe streams are value-owned and split purely; this package defines the substream discipline the engine is checked against
package rng

import (
	"math"
	"math/rand/v2"
)

// Stream is a deterministic random stream. It is not safe for concurrent
// use; derive one stream per goroutine with Split or SplitIndex. The zero
// value is not seeded: obtain streams from New, Split or SplitIndex, or seed
// one in place with SplitIndexInto.
type Stream struct {
	pcg rand.PCG
	// fingerprint identifies the stream's seed lineage. Splitting hashes the
	// fingerprint with a label, so children depend only on (lineage, label),
	// never on how many values were drawn from the parent.
	fingerprint uint64
}

// New returns a root stream for the given seed.
func New(seed uint64) *Stream {
	s := new(Stream)
	s.seed(seed)
	return s
}

// Split derives an independent child stream from this stream's lineage and
// a label. Splitting is pure: it does not consume randomness from s.
func (s *Stream) Split(label string) *Stream {
	c := new(Stream)
	c.seed(s.hash(label))
	return c
}

// SplitIndex derives an independent child stream by label and integer index,
// for per-node or per-run streams.
func (s *Stream) SplitIndex(label string, i int) *Stream {
	c := new(Stream)
	s.SplitIndexInto(c, label, i)
	return c
}

// SplitIndexInto seeds dst as the child SplitIndex(label, i) would return,
// overwriting whatever dst held. It lets a caller keep a population's
// streams in one slab instead of one allocation each.
func (s *Stream) SplitIndexInto(dst *Stream, label string, i int) {
	dst.seed(fnvUint64(s.hash(label), uint64(i)+0x51ed2701))
}

// seed resets s to the stream of the given lineage fingerprint.
func (s *Stream) seed(fp uint64) {
	s.pcg.Seed(fp, fp^0xda942042e4dd58b5)
	s.fingerprint = fp
}

// r wraps the stream's PCG for one draw. The Rand lives on the caller's
// stack; it holds a pointer to s.pcg, so draws advance s itself.
func (s *Stream) r() *rand.Rand { return rand.New(&s.pcg) }

// hash is the FNV-64a hash of s's lineage fingerprint, as eight
// little-endian bytes, followed by label, computed inline so that splitting
// allocates nothing.
func (s *Stream) hash(label string) uint64 {
	h := fnvUint64(fnvOffset, s.fingerprint)
	for i := 0; i < len(label); i++ {
		h ^= uint64(label[i])
		h *= fnvPrime
	}
	return h
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// fnvUint64 continues the FNV-64a hash h over v's eight little-endian bytes.
func fnvUint64(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= uint64(byte(v >> (8 * i)))
		h *= fnvPrime
	}
	return h
}

// Float64 returns a uniform value in [0,1).
func (s *Stream) Float64() float64 { return s.r().Float64() }

// Uniform returns a uniform value in [lo,hi).
func (s *Stream) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*s.r().Float64()
}

// IntN returns a uniform int in [0,n). n must be > 0.
func (s *Stream) IntN(n int) int { return s.r().IntN(n) }

// IntRange returns a uniform int in [lo,hi]. Requires hi >= lo.
func (s *Stream) IntRange(lo, hi int) int {
	return lo + s.r().IntN(hi-lo+1)
}

// Exp returns an exponentially distributed value with the given mean.
// mean must be > 0.
func (s *Stream) Exp(mean float64) float64 {
	// Inverse CDF; 1-Float64() avoids log(0).
	return -mean * math.Log(1-s.r().Float64())
}

// Normal returns a normally distributed value with the given mean and
// standard deviation.
func (s *Stream) Normal(mean, stddev float64) float64 {
	return mean + stddev*s.r().NormFloat64()
}

// Bool returns true with probability p.
func (s *Stream) Bool(p float64) bool { return s.r().Float64() < p }

// Perm returns a random permutation of [0,n).
func (s *Stream) Perm(n int) []int { return s.r().Perm(n) }

// Shuffle pseudo-randomizes the order of n elements using swap.
func (s *Stream) Shuffle(n int, swap func(i, j int)) { s.r().Shuffle(n, swap) }

// WeightedIndex picks index i with probability weights[i]/sum(weights).
// Weights must be non-negative with a positive sum.
func (s *Stream) WeightedIndex(weights []float64) int {
	var sum float64
	for _, w := range weights {
		sum += w
	}
	x := s.r().Float64() * sum
	for i, w := range weights {
		x -= w
		if x < 0 {
			return i
		}
	}
	return len(weights) - 1
}
