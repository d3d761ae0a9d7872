// Package sharedmutable exercises the shared-mutable check: package-level
// mutable state is shared by every world in the process, so two worlds
// running concurrently would race on it. Run state must live in
// constructed per-run structs; the only package-level vars the check
// tolerates by shape are blank interface-compliance assertions and
// sentinel errors (type error, immutable by convention).
//
//lint:shard-safe fixture: certification is a declaration, orthogonal to findings — the coverage test asserts both
package sharedmutable

import "errors"

// registry is the classic settable singleton — always flagged.
var registry = map[string]int{} // want shared-mutable

// counter and gauge share one spec line: one finding per name.
var counter, gauge int // want shared-mutable shared-mutable

// ErrClosed is a sentinel error — immutable by convention, exempt.
var ErrClosed = errors.New("sharedmutable: closed")

// The blank identifier carries interface-compliance assertions, not state.
var _ = registry

// limit is a constant — not state at all.
const limit = 8

// Suppression forms: //lint:ignore silences the line below, and
// //lint:invariant documents a deliberate, explained exemption.

//lint:ignore shared-mutable fixture demonstrates suppression
var suppressed int

//lint:invariant write-once before any run starts; never written on the event path
var annotated = []string{"seed"}

// localState shows function-local vars are per-call and never flagged.
func localState() int {
	var scratch = make([]int, 0, limit)
	scratch = append(scratch, counter)
	return len(scratch)
}
