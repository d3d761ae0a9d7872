package network

import (
	"math"
	"testing"

	"sdsrp/internal/trace"
)

// TestValidateContacts covers contacts built in code, which skip the trace
// parser: NaN passes both interval comparisons, so it needs its own check.
func TestValidateContacts(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	if err := ValidateContacts([]trace.Contact{{A: 0, B: 1, Start: 0, End: 5}}, 2); err != nil {
		t.Fatalf("valid contact rejected: %v", err)
	}
	for _, c := range []struct {
		name string
		c    trace.Contact
	}{
		{"self", trace.Contact{A: 1, B: 1, Start: 0, End: 5}},
		{"out of range", trace.Contact{A: 0, B: 2, Start: 0, End: 5}},
		{"empty", trace.Contact{A: 0, B: 1, Start: 5, End: 5}},
		{"negative start", trace.Contact{A: 0, B: 1, Start: -1, End: 5}},
		{"NaN start", trace.Contact{A: 0, B: 1, Start: nan, End: 5}},
		{"NaN end", trace.Contact{A: 0, B: 1, Start: 0, End: nan}},
		{"-Inf start", trace.Contact{A: 0, B: 1, Start: -inf, End: 5}},
		{"+Inf start", trace.Contact{A: 0, B: 1, Start: inf, End: inf}},
		{"+Inf end", trace.Contact{A: 0, B: 1, Start: 0, End: inf}},
	} {
		if err := ValidateContacts([]trace.Contact{c.c}, 2); err == nil {
			t.Errorf("%s: %+v accepted", c.name, c.c)
		}
	}
}
