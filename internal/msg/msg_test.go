package msg

import (
	"slices"
	"testing"
	"testing/quick"
)

func newTestMessage() *Message {
	return &Message{ID: 1, Source: 0, Dest: 5, Size: 500000, Created: 100, TTL: 18000, InitialCopies: 16}
}

func TestTTLAccessors(t *testing.T) {
	m := newTestMessage()
	if m.Expiry() != 18100 {
		t.Fatalf("Expiry = %v", m.Expiry())
	}
	if m.Expired(18099.9) {
		t.Fatal("Expired before expiry")
	}
	if !m.Expired(18100) {
		t.Fatal("not Expired at expiry")
	}
	if r := m.Remaining(10100); r != 8000 {
		t.Fatalf("Remaining = %v, want 8000", r)
	}
	if r := m.Remaining(99999); r != 0 {
		t.Fatalf("Remaining past expiry = %v, want 0", r)
	}
	if e := m.Elapsed(150); e != 50 {
		t.Fatalf("Elapsed = %v, want 50", e)
	}
	if e := m.Elapsed(50); e != 0 {
		t.Fatalf("Elapsed before creation = %v, want 0", e)
	}
}

func TestNewSourceCopy(t *testing.T) {
	m := newTestMessage()
	s := NewSourceCopy(m)
	if s.Copies != 16 || s.Hops != 0 || s.ReceivedAt != 100 || len(s.SprayTimes) != 0 {
		t.Fatalf("source copy = %+v", s)
	}
	if s.WaitPhase() {
		t.Fatal("source copy with 16 tokens reported wait phase")
	}
}

func TestSplitEven(t *testing.T) {
	m := newTestMessage()
	s := NewSourceCopy(m)
	r := s.Split(200)
	if s.Copies != 8 || r.Copies != 8 {
		t.Fatalf("split 16 -> %d + %d", s.Copies, r.Copies)
	}
	if r.Hops != 1 || s.Hops != 0 {
		t.Fatalf("hops after split: sender %d receiver %d", s.Hops, r.Hops)
	}
	if len(s.SprayTimes) != 1 || s.SprayTimes[0] != 200 {
		t.Fatalf("sender history = %v", s.SprayTimes)
	}
	if len(r.SprayTimes) != 1 || r.SprayTimes[0] != 200 {
		t.Fatalf("receiver history = %v", r.SprayTimes)
	}
	if r.ReceivedAt != 200 {
		t.Fatalf("receiver ReceivedAt = %v", r.ReceivedAt)
	}
}

func TestSplitOdd(t *testing.T) {
	m := newTestMessage()
	s := NewSourceCopy(m)
	s.Copies = 5
	r := s.Split(300)
	// Sender keeps the ceiling per the paper's binary spray.
	if s.Copies != 3 || r.Copies != 2 {
		t.Fatalf("split 5 -> %d + %d, want 3 + 2", s.Copies, r.Copies)
	}
}

func TestSplitDownToWaitPhase(t *testing.T) {
	m := newTestMessage()
	s := NewSourceCopy(m)
	now := 200.0
	splits := 0
	for !s.WaitPhase() {
		s.Split(now)
		now += 10
		splits++
	}
	if splits != 4 { // 16 -> 8 -> 4 -> 2 -> 1
		t.Fatalf("splits to wait phase = %d, want 4", splits)
	}
	if len(s.SprayTimes) != 4 {
		t.Fatalf("history length = %d, want 4", len(s.SprayTimes))
	}
}

func TestSplitWaitPhasePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Split on 1 token did not panic")
		}
	}()
	m := newTestMessage()
	s := NewSourceCopy(m)
	s.Copies = 1
	s.Split(10)
}

// TestSplitSenderIsSplitsSenderHalf: SplitSender leaves the sender exactly
// as Split does and returns the receiver's token count, for every count.
func TestSplitSenderIsSplitsSenderHalf(t *testing.T) {
	m := newTestMessage()
	for c := 2; c <= 33; c++ {
		a, b := NewSourceCopy(m), NewSourceCopy(m)
		a.Copies, b.Copies = c, c
		a.SprayTimes = []float64{50, 90}
		b.SprayTimes = []float64{50, 90}
		r := a.Split(100)
		give := b.SplitSender(100)
		if give != r.Copies || b.Copies != a.Copies || !slices.Equal(b.SprayTimes, a.SprayTimes) {
			t.Fatalf("C=%d: SplitSender gave %d and left %d %v; Split gave %d and left %d %v",
				c, give, b.Copies, b.SprayTimes, r.Copies, a.Copies, a.SprayTimes)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("SplitSender on 1 token did not panic")
		}
	}()
	s := NewSourceCopy(m)
	s.Copies = 1
	s.SplitSender(10)
}

func TestSplitHistoryIsolation(t *testing.T) {
	// Mutating the sender's history after a split must not affect the
	// receiver's copy, and vice versa.
	m := newTestMessage()
	s := NewSourceCopy(m)
	r := s.Split(200)
	s.Split(250)
	if len(r.SprayTimes) != 1 {
		t.Fatalf("receiver history grew with sender: %v", r.SprayTimes)
	}
	r2 := r.Split(300)
	if len(s.SprayTimes) != 2 {
		t.Fatalf("sender history affected by receiver split: %v", s.SprayTimes)
	}
	if len(r2.SprayTimes) != 2 || r2.SprayTimes[1] != 300 {
		t.Fatalf("grandchild history = %v", r2.SprayTimes)
	}
}

func TestRelay(t *testing.T) {
	m := newTestMessage()
	s := NewSourceCopy(m)
	s.Split(200)
	r := s.Relay(400, 1)
	if r.Copies != 1 || r.Hops != 1 || r.ReceivedAt != 400 {
		t.Fatalf("relay copy = %+v", r)
	}
	if len(r.SprayTimes) != len(s.SprayTimes) {
		t.Fatal("relay did not carry spray history")
	}
	r.SprayTimes[0] = -1
	if s.SprayTimes[0] == -1 {
		t.Fatal("relay shares history storage with sender")
	}
}

// Property: token conservation — after any sequence of splits, the total
// token count over all live copies equals the initial count, and every
// copy's history length equals the number of splits on its lineage.
func TestPropertyTokenConservation(t *testing.T) {
	f := func(seed uint8, initial uint8) bool {
		l := int(initial)%63 + 2 // 2..64
		m := &Message{ID: 2, Size: 1, TTL: 100, InitialCopies: l}
		copies := []*Stored{NewSourceCopy(m)}
		now := 1.0
		x := uint32(seed) + 1
		for step := 0; step < 40; step++ {
			x = x*1664525 + 1013904223
			i := int(x>>8) % len(copies)
			if copies[i].Copies >= 2 {
				copies = append(copies, copies[i].Split(now))
				now++
			}
		}
		total := 0
		for _, c := range copies {
			total += c.Copies
			if c.Copies < 1 {
				return false
			}
		}
		return total == l
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
