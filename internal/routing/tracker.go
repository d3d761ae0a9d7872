package routing

import "sdsrp/internal/msg"

// Tracker maintains the simulator's ground-truth view of message spread:
// the true m_i (distinct non-source carriers so far) and n_i (current
// holders). It backs oracle policies and the estimator-accuracy ablation.
type Tracker struct {
	source  map[msg.ID]int
	carried map[msg.ID]map[int]bool // every node that ever stored a copy
	live    map[msg.ID]int          // current holder count
}

// NewTracker returns an empty tracker.
func NewTracker() *Tracker {
	return &Tracker{
		source:  make(map[msg.ID]int),
		carried: make(map[msg.ID]map[int]bool),
		live:    make(map[msg.ID]int),
	}
}

// NoteCreated registers a message and its source node.
func (t *Tracker) NoteCreated(id msg.ID, source int) {
	t.source[id] = source
	if t.carried[id] == nil {
		t.carried[id] = make(map[int]bool)
	}
}

// NoteStored registers that node now holds a copy of id.
func (t *Tracker) NoteStored(id msg.ID, node int) {
	set := t.carried[id]
	if set == nil {
		set = make(map[int]bool)
		t.carried[id] = set
	}
	set[node] = true
	t.live[id]++
}

// NoteRemoved registers that node no longer holds a copy (drop, expiry,
// delivery cleanup, or handoff).
func (t *Tracker) NoteRemoved(id msg.ID, node int) {
	if t.live[id] > 0 {
		t.live[id]--
	}
	_ = node
}

// NoteDelivered registers that the destination consumed the message. The
// destination counts as having seen it even though it never buffers it.
func (t *Tracker) NoteDelivered(id msg.ID, node int) {
	set := t.carried[id]
	if set == nil {
		set = make(map[int]bool)
		t.carried[id] = set
	}
	set[node] = true
}

// Seen returns the true m_i: carriers excluding the source.
func (t *Tracker) Seen(id msg.ID) int {
	set := t.carried[id]
	n := len(set)
	if src, ok := t.source[id]; ok && set[src] {
		n--
	}
	return n
}

// Live returns the true n_i: current holder count.
func (t *Tracker) Live(id msg.ID) int { return t.live[id] }
