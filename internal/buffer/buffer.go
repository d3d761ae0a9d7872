// Package buffer implements a node's byte-budgeted message store.
//
// The buffer only accounts and stores; *which* message to evict on overflow
// is a policy decision made by internal/policy and executed by the router.
// Iteration order is insertion order (FIFO), which the FIFO policy relies
// on directly.
//
// # Performance contract
//
// Items returns the live backing slice (not a copy) in insertion order;
// callers must not mutate it and must not hold it across an Add or Remove.
// internal/policy's Orderer copies it into its own scratch space before
// sorting for exactly this reason. Lookups (Has/Get) go through a
// by-ID map, so membership checks on the transfer hot path are O(1);
// Remove compacts the slice in place, preserving order, at O(n) — overflow
// evictions are rare relative to lookups. Byte accounting (Used/Free) is
// maintained incrementally and costs O(1).
//
//lint:shard-safe per-node store; no package state, no substreams
package buffer

import (
	"fmt"

	"sdsrp/internal/msg"
)

// Buffer is a byte-capacity-bounded store of message copies. Construct one
// with New, or fill one in place with Init; the zero value is an empty
// buffer of capacity 0.
type Buffer struct {
	capacity int64
	used     int64
	items    []*msg.Stored  // insertion order
	index    map[msg.ID]int // id -> position in items; nil until the first Add
}

// New returns an empty buffer with the given capacity in bytes.
func New(capacity int64) *Buffer {
	b := new(Buffer)
	Init(b, capacity)
	return b
}

// Init empties b and sets its capacity in bytes, as New would build it, for
// callers that embed a buffer or keep many in one slab.
func Init(b *Buffer, capacity int64) {
	*b = Buffer{capacity: capacity}
}

// Capacity returns the byte capacity.
func (b *Buffer) Capacity() int64 { return b.capacity }

// Used returns the bytes currently stored.
func (b *Buffer) Used() int64 { return b.used }

// Free returns the bytes available.
func (b *Buffer) Free() int64 { return b.capacity - b.used }

// Len returns the number of stored messages.
func (b *Buffer) Len() int { return len(b.items) }

// Has reports whether a copy of message id is stored.
//
// Performance contract: a single map probe; O(1) and allocation-free on
// the transfer hot path.
func (b *Buffer) Has(id msg.ID) bool {
	_, ok := b.index[id]
	return ok
}

// Get returns the stored copy of id, or nil.
//
// Performance contract: a single map probe; O(1) and allocation-free on
// the transfer hot path.
func (b *Buffer) Get(id msg.ID) *msg.Stored {
	if i, ok := b.index[id]; ok {
		return b.items[i]
	}
	return nil
}

// Items returns the stored copies in insertion (receive) order. The returned
// slice is the buffer's backing storage: callers must not mutate it and must
// not hold it across Add/Remove calls.
func (b *Buffer) Items() []*msg.Stored { return b.items }

// Add stores s. It returns an error if a copy of the same message is already
// present or if it does not fit; the router must evict first.
func (b *Buffer) Add(s *msg.Stored) error {
	if _, ok := b.index[s.M.ID]; ok {
		return fmt.Errorf("buffer: duplicate message %d", s.M.ID)
	}
	if s.M.Size > b.Free() {
		return fmt.Errorf("buffer: message %d (%dB) exceeds free space (%dB)",
			s.M.ID, s.M.Size, b.Free())
	}
	if b.index == nil {
		b.index = make(map[msg.ID]int)
	}
	b.index[s.M.ID] = len(b.items)
	b.items = append(b.items, s)
	b.used += s.M.Size
	return nil
}

// Remove deletes the copy of id and returns it, or nil if absent. Insertion
// order of the remaining items is preserved.
func (b *Buffer) Remove(id msg.ID) *msg.Stored {
	i, ok := b.index[id]
	if !ok {
		return nil
	}
	s := b.items[i]
	copy(b.items[i:], b.items[i+1:])
	b.items[len(b.items)-1] = nil
	b.items = b.items[:len(b.items)-1]
	delete(b.index, id)
	for j := i; j < len(b.items); j++ {
		b.index[b.items[j].M.ID] = j
	}
	b.used -= s.M.Size
	return s
}

// Oldest returns the earliest-inserted copy, or nil when empty.
func (b *Buffer) Oldest() *msg.Stored {
	if len(b.items) == 0 {
		return nil
	}
	return b.items[0]
}

// Fits reports whether a message of the given size could be stored right now
// without eviction.
func (b *Buffer) Fits(size int64) bool { return size <= b.Free() }

// Expired appends to out all copies whose message is dead at now.
func (b *Buffer) Expired(now float64, out []*msg.Stored) []*msg.Stored {
	for _, s := range b.items {
		if s.M.Expired(now) {
			out = append(out, s)
		}
	}
	return out
}
