// Package eventq provides a generic binary-heap priority queue used by the
// simulation engine and by internal schedulers.
//
// The queue is a min-heap ordered by a user-supplied less function. It is
// deliberately not safe for concurrent use: a simulation run is single
// threaded by design (see internal/sim), and keeping the queue lock-free
// keeps Push/Pop on the hot path allocation- and contention-free.
//
// # Performance contract
//
// The heap is backed by a single slice that only grows: Pop shrinks the
// length but keeps the capacity, and zeroes the vacated slot so the element
// (typically a pointer) is released to the GC. Once the backing array has
// reached the run's peak queue depth, Push and Pop allocate nothing —
// internal/sim layers an event free-list on top (recycling dispatched event
// structs), which together make steady-state scheduling fully
// allocation-free. Push/Pop are O(log n); Peek and Len are O(1).
//
//lint:shard-safe no package state; each shard owns its queue instance, and the heap never reads anything but the injected less function
package eventq

// Queue is a binary min-heap of T ordered by the less function supplied to
// New. The zero value is not usable; construct with New.
type Queue[T any] struct {
	items []T
	less  func(a, b T) bool
}

// New returns an empty queue ordered by less. less must define a strict weak
// ordering; ties are broken by heap layout, so callers that need total
// determinism must make less itself total (e.g. compare a sequence number
// last).
func New[T any](less func(a, b T) bool) *Queue[T] {
	return &Queue[T]{less: less}
}

// NewWithCapacity is New with a pre-sized backing array, for callers that
// know roughly how many items will be in flight.
func NewWithCapacity[T any](less func(a, b T) bool, capacity int) *Queue[T] {
	return &Queue[T]{items: make([]T, 0, capacity), less: less}
}

// Len reports the number of queued items.
func (q *Queue[T]) Len() int { return len(q.items) }

// Push adds v to the queue in O(log n).
//
// Performance contract: grows the backing array in place only; once the
// array has reached the run's peak queue depth, Push allocates nothing.
func (q *Queue[T]) Push(v T) {
	q.items = append(q.items, v)
	q.up(len(q.items) - 1)
}

// Peek returns the minimum item without removing it. ok is false when the
// queue is empty.
func (q *Queue[T]) Peek() (v T, ok bool) {
	if len(q.items) == 0 {
		return v, false
	}
	return q.items[0], true
}

// Pop removes and returns the minimum item in O(log n). ok is false when the
// queue is empty.
//
// Performance contract: shrinks the length but keeps the capacity and
// zeroes the vacated slot; Pop never allocates.
func (q *Queue[T]) Pop() (v T, ok bool) {
	if len(q.items) == 0 {
		return v, false
	}
	v = q.items[0]
	last := len(q.items) - 1
	q.items[0] = q.items[last]
	var zero T
	q.items[last] = zero // release references for GC
	q.items = q.items[:last]
	if last > 0 {
		q.down(0)
	}
	return v, true
}

func (q *Queue[T]) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !q.less(q.items[i], q.items[parent]) {
			return
		}
		q.items[i], q.items[parent] = q.items[parent], q.items[i]
		i = parent
	}
}

func (q *Queue[T]) down(i int) {
	n := len(q.items)
	for {
		left := 2*i + 1
		if left >= n {
			return
		}
		child := left
		if right := left + 1; right < n && q.less(q.items[right], q.items[left]) {
			child = right
		}
		if !q.less(q.items[child], q.items[i]) {
			return
		}
		q.items[i], q.items[child] = q.items[child], q.items[i]
		i = child
	}
}
