package geo

import (
	"testing"
)

// gridWith builds a grid over a 1000×1000 area with the given positions.
func gridWith(pos []Point) *Grid {
	g := NewGrid(NewRect(1000, 1000), 100, len(pos))
	g.Update(pos)
	return g
}

// TestPairsReusesBackingArray pins the scratch-buffer contract: passing a
// truncated previous result back in reuses its backing array instead of
// allocating, and the appended contents are identical to a fresh query.
func TestPairsReusesBackingArray(t *testing.T) {
	pos := []Point{{100, 100}, {150, 100}, {400, 400}, {410, 410}, {100, 190}}
	g := gridWith(pos)

	fresh := g.Pairs(100, nil)
	if len(fresh) == 0 {
		t.Fatal("expected at least one pair")
	}

	// Warm a scratch buffer, then reuse it: no growth may occur.
	scratch := g.Pairs(100, nil)
	allocs := testing.AllocsPerRun(100, func() {
		scratch = g.Pairs(100, scratch[:0])
	})
	if allocs != 0 {
		t.Errorf("Pairs with warm scratch allocated %.1f times per call, want 0", allocs)
	}
	if len(scratch) != len(fresh) {
		t.Fatalf("reused query returned %d pairs, fresh returned %d", len(scratch), len(fresh))
	}
	for i := range fresh {
		if scratch[i] != fresh[i] {
			t.Errorf("pair %d: reused %v != fresh %v", i, scratch[i], fresh[i])
		}
	}
}

// TestPairsAppendsWithoutTruncating pins that Pairs appends to out as given:
// a caller passing a non-empty slice keeps its prefix. Callers wanting reuse
// must pass out[:0] themselves.
func TestPairsAppendsWithoutTruncating(t *testing.T) {
	pos := []Point{{100, 100}, {150, 100}}
	g := gridWith(pos)

	sentinel := [2]int32{-7, -9}
	out := g.Pairs(100, [][2]int32{sentinel})
	if len(out) < 2 {
		t.Fatalf("got %d entries, want sentinel plus at least one pair", len(out))
	}
	if out[0] != sentinel {
		t.Errorf("prefix overwritten: got %v, want sentinel %v", out[0], sentinel)
	}
}

// TestPairsReuseAliasesPriorResult documents the aliasing hazard of the
// reuse idiom: reusing a buffer via out[:0] overwrites the previous call's
// results in place, so a caller must finish consuming (or copy) one query
// before issuing the next on the same buffer.
func TestPairsReuseAliasesPriorResult(t *testing.T) {
	near := []Point{{100, 100}, {150, 100}, {400, 400}}
	g := gridWith(near)

	first := g.Pairs(100, nil)
	if len(first) != 1 || first[0] != [2]int32{0, 1} {
		t.Fatalf("setup: got %v, want [[0 1]]", first)
	}
	kept := first[0]

	// Move the nodes and rerun into the same buffer: node pair (1,2) is now
	// the only contact.
	g.Update([]Point{{100, 100}, {400, 390}, {400, 400}})
	second := g.Pairs(100, first[:0])
	if len(second) != 1 || second[0] != [2]int32{1, 2} {
		t.Fatalf("after move: got %v, want [[1 2]]", second)
	}
	// The old view now shows the new data: same backing array.
	if first[0] == kept {
		t.Errorf("expected first[0] to be overwritten by reuse, still %v", first[0])
	}
	if first[0] != second[0] {
		t.Errorf("first and second should alias: %v != %v", first[0], second[0])
	}
}
