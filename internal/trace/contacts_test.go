package trace

import (
	"bytes"
	"strings"
	"testing"
)

const contactTrace = `# infocom-style contact trace
0 1 10 60
1 2 30 90
0 2 120 150
`

func TestParseContacts(t *testing.T) {
	cs, err := ParseContacts(strings.NewReader(contactTrace))
	if err != nil {
		t.Fatal(err)
	}
	if len(cs) != 3 {
		t.Fatalf("contacts = %d", len(cs))
	}
	if cs[0] != (Contact{A: 0, B: 1, Start: 10, End: 60}) {
		t.Fatalf("first contact = %+v", cs[0])
	}
	if MaxNode(cs) != 2 {
		t.Fatalf("MaxNode = %d", MaxNode(cs))
	}
}

func TestParseContactsErrors(t *testing.T) {
	bad := []string{
		"",              // empty
		"0 1 10\n",      // short
		"x 1 10 20\n",   // bad id
		"0 0 10 20\n",   // self contact
		"0 1 20 10\n",   // inverted interval
		"-1 1 10 20\n",  // negative id
		"0 1 10 20 5\n", // too many fields
	}
	for _, in := range bad {
		if _, err := ParseContacts(strings.NewReader(in)); err == nil {
			t.Fatalf("ParseContacts(%q) accepted", in)
		}
	}
}

// TestParseErrorsCarryLineNumbers pins the diagnostic contract: every parse
// failure — including a record the scanner itself chokes on — names the
// offending line.
func TestParseErrorsCarryLineNumbers(t *testing.T) {
	cases := []struct {
		name  string
		parse func(string) error
		in    string
		want  string
	}{
		{"contacts short record", func(s string) error {
			_, err := ParseContacts(strings.NewReader(s))
			return err
		}, "0 1 10 60\n1 2 30\n", "line 2"},
		{"contacts oversized record", func(s string) error {
			_, err := ParseContacts(strings.NewReader(s))
			return err
		}, "0 1 10 60\n" + strings.Repeat("9", 2<<20), "line 2"},
		{"cab truncated record", func(s string) error {
			_, err := ParseCab(strings.NewReader(s))
			return err
		}, "37.7 -122.4 0 100\n37.8 -122.5 1\n", "line 2"},
		{"cab oversized record", func(s string) error {
			_, err := ParseCab(strings.NewReader(s))
			return err
		}, strings.Repeat("x", 2<<20), "line 1"},
		{"one extra fields", func(s string) error {
			_, err := ParseONE(strings.NewReader(s))
			return err
		}, "0 1 0 10 0 10\n5 a 3 4 7\n", "line 2"},
		{"one oversized record", func(s string) error {
			_, err := ParseONE(strings.NewReader(s))
			return err
		}, "0 1 0 10 0 10\n5 a 3 4\n" + strings.Repeat("1 ", 1<<20), "line 3"},
	}
	for _, tc := range cases {
		err := tc.parse(tc.in)
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not name %q", tc.name, err, tc.want)
		}
	}
}

func TestWriteContactsRoundTrip(t *testing.T) {
	in := []Contact{
		{A: 3, B: 1, Start: 50, End: 70},
		{A: 0, B: 1, Start: 10, End: 60},
	}
	var buf bytes.Buffer
	if err := WriteContacts(&buf, in); err != nil {
		t.Fatal(err)
	}
	// Written sorted by start.
	if !strings.HasPrefix(buf.String(), "0 1 10 60\n") {
		t.Fatalf("not sorted:\n%s", buf.String())
	}
	out, err := ParseContacts(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 || out[1] != in[0] {
		t.Fatalf("round trip = %+v", out)
	}
	if MaxNode(nil) != -1 {
		t.Fatal("MaxNode(nil) != -1")
	}
}

// TestParsersRejectNonFinite: strconv reads "NaN" and "Inf", so every
// numeric field of every trace format must refuse them itself, naming the
// line. A NaN contact time used to reach the event queue and panic there.
func TestParsersRejectNonFinite(t *testing.T) {
	contacts := func(s string) error { _, err := ParseContacts(strings.NewReader(s)); return err }
	cab := func(s string) error { _, err := ParseCab(strings.NewReader(s)); return err }
	one := func(s string) error { _, err := ParseONE(strings.NewReader(s)); return err }
	cases := []struct {
		name  string
		parse func(string) error
		in    string
		want  string
	}{
		{"contacts start", contacts, "0 1 10 60\n1 2 NaN 5\n", "line 2: start"},
		{"contacts end", contacts, "0 1 10 +Inf\n", "line 1: end"},
		{"cab latitude", cab, "37.7 -122.4 0 100\nnan -122.4 0 90\n", "line 2: latitude"},
		{"cab longitude", cab, "37.7 -Inf 0 100\n", "line 1: longitude"},
		{"one header", one, "0 1 0 NaN 0 10\n5 a 3 4\n", "line 1: ONE header field 3"},
		{"one time", one, "0 1 0 10 0 10\nInf a 3 4\n", "line 2: time"},
		{"one x", one, "0 1 0 10 0 10\n5 a 3 4\n6 a NaN 4\n", "line 3: x"},
		{"one y", one, "0 1 0 10 0 10\n5 a 3 -inf\n", "line 2: y"},
	}
	for _, c := range cases {
		err := c.parse(c.in)
		if err == nil {
			t.Errorf("%s: %q accepted", c.name, c.in)
		} else if !strings.Contains(err.Error(), c.want) || !strings.Contains(err.Error(), "not a finite number") {
			t.Errorf("%s: error %q, want %q and the reason", c.name, err, c.want)
		}
	}
}
