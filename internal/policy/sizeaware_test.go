package policy

import (
	"testing"

	"sdsrp/internal/buffer"
	"sdsrp/internal/msg"
	"sdsrp/internal/rng"
)

func sized(id msg.ID, size int64, received float64) *msg.Stored {
	m := &msg.Message{ID: id, Size: size, Created: 0, TTL: 18000, InitialCopies: 16}
	return &msg.Stored{M: m, Copies: 4, ReceivedAt: received}
}

func TestDropLargestOrdering(t *testing.T) {
	v := defaultView()
	items := []*msg.Stored{
		sized(1, 900, 0),
		sized(2, 100, 0),
		sized(3, 500, 0),
	}
	// Smallest transmits first.
	wantIDs(t, sendOrder(DropLargest{}, v, items), 2, 3, 1)
	// Largest evicted first.
	b := buffer.New(1500)
	for _, s := range items {
		if err := b.Add(s); err != nil {
			t.Fatal(err)
		}
	}
	victims, ok := planEviction(DropLargest{}, v, b, sized(4, 200, 1000))
	if !ok {
		t.Fatal("rejected")
	}
	wantIDs(t, victims, 1)
}

func TestKnapsackPrefersDenseUtility(t *testing.T) {
	v := defaultView()
	// Same spread state; message 2 is four times smaller, so its utility
	// density is higher.
	v.seen[1], v.live[1] = 3, 2
	v.seen[2], v.live[2] = 3, 2
	big := sized(1, 1_000_000, 0)
	small := sized(2, 250_000, 0)
	items := []*msg.Stored{big, small}
	wantIDs(t, sendOrder(Knapsack{}, v, items), 2, 1)
	// SDSRP (size-blind) ties them apart only by ID.
	wantIDs(t, sendOrder(SDSRP{}, v, items), 1, 2)
}

func TestKnapsackNoLambdaFallback(t *testing.T) {
	v := defaultView()
	v.lambda = 0
	s := sized(1, 500, 0)
	if (Knapsack{}).SendScore(v, s) <= 0 {
		t.Fatal("fallback score not positive for live message")
	}
}

func TestSizeAwareByName(t *testing.T) {
	for _, name := range []string{"Knapsack", "DropLargest"} {
		p, err := ByName(name, rng.New(1))
		if err != nil || p.Name() != name {
			t.Fatalf("ByName(%q) = %v, %v", name, p, err)
		}
		if err := Register(name, func(*rng.Stream) Policy { return FIFO{} }); err == nil {
			t.Fatalf("built-in %q overridable", name)
		}
	}
}
