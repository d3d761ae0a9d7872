package trace

import (
	"bufio"
	"cmp"
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"
)

// Contact is one recorded encounter between two nodes: the unit of a
// contact trace, and what a contact-trace-driven run replays
// (network.Manager.StartScheduled).
type Contact struct {
	A, B       int
	Start, End float64
}

// ParseContacts reads a contact trace in the common whitespace format used
// by the Haggle/Infocom datasets and ONE's connectivity reports:
//
//	<nodeA> <nodeB> <start> <end>
//
// one contact per line, '#' comments and blank lines skipped. Node ids may
// be arbitrary non-negative integers; they are returned as-is (the caller
// sizes the network from MaxNode).
func ParseContacts(r io.Reader) ([]Contact, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 1024*1024)
	var out []Contact
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 4 {
			return nil, fmt.Errorf("trace: line %d: want 4 fields, got %d", lineNo, len(fields))
		}
		a, err := strconv.Atoi(fields[0])
		if err != nil {
			return nil, fmt.Errorf("trace: line %d: node a: %v", lineNo, err)
		}
		b, err := strconv.Atoi(fields[1])
		if err != nil {
			return nil, fmt.Errorf("trace: line %d: node b: %v", lineNo, err)
		}
		start, err := parseFinite(fields[2])
		if err != nil {
			return nil, fmt.Errorf("trace: line %d: start: %v", lineNo, err)
		}
		end, err := parseFinite(fields[3])
		if err != nil {
			return nil, fmt.Errorf("trace: line %d: end: %v", lineNo, err)
		}
		if a < 0 || b < 0 || a == b || end <= start {
			return nil, fmt.Errorf("trace: line %d: invalid contact %d-%d [%v,%v]", lineNo, a, b, start, end)
		}
		out = append(out, Contact{A: a, B: b, Start: start, End: end})
	}
	if err := sc.Err(); err != nil {
		// The scanner died mid-record (oversized or truncated line):
		// report where, not just why.
		return nil, fmt.Errorf("trace: line %d: %w", lineNo+1, err)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("trace: empty contact trace")
	}
	return out, nil
}

// WriteContacts writes contacts in the ParseContacts format, stably sorted
// by start time.
func WriteContacts(w io.Writer, contacts []Contact) error {
	sorted := slices.Clone(contacts)
	slices.SortStableFunc(sorted, func(x, y Contact) int { return cmp.Compare(x.Start, y.Start) })
	bw := bufio.NewWriter(w)
	for _, c := range sorted {
		if _, err := fmt.Fprintf(bw, "%d %d %g %g\n", c.A, c.B, c.Start, c.End); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// MaxNode returns the largest node id in the trace (-1 when empty).
func MaxNode(contacts []Contact) int {
	max := -1
	for _, c := range contacts {
		if c.A > max {
			max = c.A
		}
		if c.B > max {
			max = c.B
		}
	}
	return max
}
