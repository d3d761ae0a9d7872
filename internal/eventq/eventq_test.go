package eventq

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func intQueue() *Queue[int] { return New(func(a, b int) bool { return a < b }) }

// popAll pops q until it is empty and returns the items in pop order.
func popAll[T any](q *Queue[T]) []T {
	var out []T
	for q.Len() > 0 {
		v, _ := q.Pop()
		out = append(out, v)
	}
	return out
}

func TestEmptyQueue(t *testing.T) {
	q := intQueue()
	if q.Len() != 0 {
		t.Fatalf("Len() = %d, want 0", q.Len())
	}
	if _, ok := q.Pop(); ok {
		t.Fatal("Pop on empty queue reported ok")
	}
	if _, ok := q.Peek(); ok {
		t.Fatal("Peek on empty queue reported ok")
	}
}

func TestPushPopSingle(t *testing.T) {
	q := intQueue()
	q.Push(42)
	if v, ok := q.Peek(); !ok || v != 42 {
		t.Fatalf("Peek = %d,%v want 42,true", v, ok)
	}
	if v, ok := q.Pop(); !ok || v != 42 {
		t.Fatalf("Pop = %d,%v want 42,true", v, ok)
	}
	if q.Len() != 0 {
		t.Fatalf("Len after pop = %d, want 0", q.Len())
	}
}

func TestAscendingOrder(t *testing.T) {
	q := intQueue()
	in := []int{5, 3, 8, 1, 9, 2, 7, 4, 6, 0}
	for _, v := range in {
		q.Push(v)
	}
	for want := 0; want < 10; want++ {
		v, ok := q.Pop()
		if !ok || v != want {
			t.Fatalf("Pop = %d,%v want %d,true", v, ok, want)
		}
	}
}

func TestDuplicates(t *testing.T) {
	q := intQueue()
	for i := 0; i < 5; i++ {
		q.Push(7)
		q.Push(3)
	}
	got := popAll(q)
	want := []int{3, 3, 3, 3, 3, 7, 7, 7, 7, 7}
	if len(got) != len(want) {
		t.Fatalf("popped %d items, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("pop %d = %d, want %d", i, got[i], want[i])
		}
	}
}

func TestInterleavedPushPop(t *testing.T) {
	q := intQueue()
	q.Push(10)
	q.Push(1)
	if v, _ := q.Pop(); v != 1 {
		t.Fatalf("got %d, want 1", v)
	}
	q.Push(0)
	q.Push(5)
	if v, _ := q.Pop(); v != 0 {
		t.Fatalf("got %d, want 0", v)
	}
	if v, _ := q.Pop(); v != 5 {
		t.Fatalf("got %d, want 5", v)
	}
	if v, _ := q.Pop(); v != 10 {
		t.Fatalf("got %d, want 10", v)
	}
}

func TestNewWithCapacity(t *testing.T) {
	q := NewWithCapacity(func(a, b int) bool { return a < b }, 64)
	for i := 63; i >= 0; i-- {
		q.Push(i)
	}
	for want := 0; want < 64; want++ {
		if v, _ := q.Pop(); v != want {
			t.Fatalf("got %d want %d", v, want)
		}
	}
}

// Property: draining the queue yields exactly the multiset pushed, sorted.
func TestPropertyDrainSorts(t *testing.T) {
	f := func(xs []int16) bool {
		q := New(func(a, b int16) bool { return a < b })
		for _, x := range xs {
			q.Push(x)
		}
		got := popAll(q)
		want := append([]int16(nil), xs...)
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: interleaved random push/pop maintains the invariant that every
// Pop returns the minimum of the current contents.
func TestPropertyRandomOps(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	q := intQueue()
	var mirror []int
	for op := 0; op < 5000; op++ {
		if rng.Intn(3) != 0 || len(mirror) == 0 {
			v := rng.Intn(1000)
			q.Push(v)
			mirror = append(mirror, v)
		} else {
			min := 0
			for i, v := range mirror {
				if v < mirror[min] {
					min = i
				}
				_ = v
			}
			want := mirror[min]
			mirror = append(mirror[:min], mirror[min+1:]...)
			got, ok := q.Pop()
			if !ok || got != want {
				t.Fatalf("op %d: Pop = %d,%v want %d,true", op, got, ok, want)
			}
		}
		if q.Len() != len(mirror) {
			t.Fatalf("op %d: Len = %d, mirror %d", op, q.Len(), len(mirror))
		}
	}
}

func BenchmarkPushPop(b *testing.B) {
	q := NewWithCapacity(func(a, b int) bool { return a < b }, 1024)
	rng := rand.New(rand.NewSource(2))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		q.Push(rng.Intn(1 << 20))
		if q.Len() > 512 {
			q.Pop()
		}
	}
}
