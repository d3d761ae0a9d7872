package rng

import (
	"slices"
	"testing"
)

// goldenDraws are the first draws of streams built every supported way, in
// this order: Float64, IntN(1000), Normal(0, 1), Exp(1), Perm(6), and a
// Shuffle of 0…5. They were recorded from the stream implementation that
// used hash/fnv and heap-allocated math/rand/v2 sources, so they pin the
// seeding and the label hashing byte for byte: a change to either moves
// every draw of every run.
var goldenDraws = []struct {
	name    string
	float   float64
	intn    int
	normal  float64
	exp     float64
	perm    []int
	shuffle []int
}{
	{"New(1)", 0.08579494226407469, 247, 0.17505460621868635, 1.2261428154637628, []int{3, 4, 5, 0, 1, 2}, []int{3, 5, 2, 1, 4, 0}},
	{"New(7)", 0.8727524788134029, 290, 1.4977809670624675, 1.1676080935643802, []int{0, 3, 5, 4, 1, 2}, []int{4, 3, 5, 1, 2, 0}},
	{"New(0xdeadbeefcafef00d)", 0.7759333412220171, 221, 0.12567626008608113, 2.094284350731514, []int{0, 1, 2, 4, 3, 5}, []int{2, 0, 5, 1, 3, 4}},
	{`New(1).Split("mobility")`, 0.8848574992971122, 643, 0.2728051531614869, 0.5979167824773436, []int{3, 0, 1, 4, 2, 5}, []int{3, 2, 5, 4, 1, 0}},
	{`New(7).Split("traffic")`, 0.5122626729143834, 897, 0.20422288494745255, 1.6873626377325581, []int{2, 1, 4, 5, 0, 3}, []int{4, 2, 1, 0, 3, 5}},
	{`New(42).Split("")`, 0.8057257287687235, 475, 2.7945907615290086, 2.2072819587379953, []int{4, 5, 1, 2, 3, 0}, []int{5, 1, 0, 3, 4, 2}},
	{`New(1).SplitIndex("node", 0)`, 0.11264249122798764, 33, -0.34496476021712436, 0.800249185260496, []int{4, 3, 0, 2, 1, 5}, []int{2, 1, 5, 0, 3, 4}},
	{`New(1).SplitIndex("policy", 99999)`, 0.7799343874489518, 344, -0.4977758761690154, 0.2012549438742272, []int{5, 2, 1, 0, 4, 3}, []int{0, 4, 1, 3, 5, 2}},
	{`New(7).SplitIndex("taxi", 3)`, 0.7756225484594134, 724, 1.372181364733393, 2.0242296432905817, []int{4, 1, 2, 5, 3, 0}, []int{2, 4, 0, 3, 5, 1}},
	{`New(1).Split("mobility").SplitIndex("node", 1)`, 0.6250286350690072, 87, -0.31781747059378973, 1.1078232647645472, []int{4, 3, 5, 1, 2, 0}, []int{3, 0, 2, 4, 5, 1}},
}

// splitInto seeds a stream in place the way SplitIndex would allocate one,
// reusing a slot that held another stream first.
func splitInto(parent *Stream, label string, i int) *Stream {
	dst := New(12345)
	dst.Float64()
	parent.SplitIndexInto(dst, label, i)
	return dst
}

// goldenStreams builds each golden stream in every way that should give
// it: the allocating constructors, and for indexed children also the
// in-place split.
func goldenStreams() map[string][]*Stream {
	return map[string][]*Stream{
		"New(1)":                   {New(1)},
		"New(7)":                   {New(7)},
		"New(0xdeadbeefcafef00d)":  {New(0xdeadbeefcafef00d)},
		`New(1).Split("mobility")`: {New(1).Split("mobility")},
		`New(7).Split("traffic")`:  {New(7).Split("traffic")},
		`New(42).Split("")`:        {New(42).Split("")},
		`New(1).SplitIndex("node", 0)`: {
			New(1).SplitIndex("node", 0), splitInto(New(1), "node", 0)},
		`New(1).SplitIndex("policy", 99999)`: {
			New(1).SplitIndex("policy", 99999), splitInto(New(1), "policy", 99999)},
		`New(7).SplitIndex("taxi", 3)`: {
			New(7).SplitIndex("taxi", 3), splitInto(New(7), "taxi", 3)},
		`New(1).Split("mobility").SplitIndex("node", 1)`: {
			New(1).Split("mobility").SplitIndex("node", 1),
			splitInto(New(1).Split("mobility"), "node", 1)},
	}
}

func TestGoldenDraws(t *testing.T) {
	streams := goldenStreams()
	for _, g := range goldenDraws {
		built := streams[g.name]
		if len(built) == 0 {
			t.Fatalf("%s: no stream built", g.name)
		}
		for k, s := range built {
			if got := s.Float64(); got != g.float {
				t.Errorf("%s #%d: Float64 = %v, want %v", g.name, k, got, g.float)
			}
			if got := s.IntN(1000); got != g.intn {
				t.Errorf("%s #%d: IntN = %d, want %d", g.name, k, got, g.intn)
			}
			if got := s.Normal(0, 1); got != g.normal {
				t.Errorf("%s #%d: Normal = %v, want %v", g.name, k, got, g.normal)
			}
			if got := s.Exp(1); got != g.exp {
				t.Errorf("%s #%d: Exp = %v, want %v", g.name, k, got, g.exp)
			}
			if got := s.Perm(6); !slices.Equal(got, g.perm) {
				t.Errorf("%s #%d: Perm = %v, want %v", g.name, k, got, g.perm)
			}
			sh := []int{0, 1, 2, 3, 4, 5}
			s.Shuffle(len(sh), func(i, j int) { sh[i], sh[j] = sh[j], sh[i] })
			if !slices.Equal(sh, g.shuffle) {
				t.Errorf("%s #%d: Shuffle = %v, want %v", g.name, k, sh, g.shuffle)
			}
		}
	}
}

// TestSeedingAndDrawsDoNotAllocate pins the stream layout: seeding a slot in
// place and every draw that returns a scalar run without a heap allocation.
func TestSeedingAndDrawsDoNotAllocate(t *testing.T) {
	root := New(1)
	var dst Stream
	weights := []float64{1, 2, 3}
	allocs := testing.AllocsPerRun(100, func() {
		root.SplitIndexInto(&dst, "node", 7)
		dst.Float64()
		dst.Uniform(0, 1)
		dst.IntN(10)
		dst.IntRange(1, 5)
		dst.Exp(1)
		dst.Normal(0, 1)
		dst.Bool(0.5)
		dst.WeightedIndex(weights)
	})
	if allocs != 0 {
		t.Errorf("in-place split and scalar draws allocate %.1f objects, want 0", allocs)
	}
}
