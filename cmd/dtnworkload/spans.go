package main

import (
	"encoding/json"
	"os"
	"time"
)

// span is one timed interval of the traced run, recorded from the
// benchmark's side of a layer boundary. Times are seconds since the
// recorder started; Parent is the index of the enclosing span, -1 for a
// root. Self, filled in when the spans are written, is the duration minus
// the time the span's children take.
type span struct {
	Name   string  `json:"name"`
	Parent int     `json:"parent"`
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
	Self   float64 `json:"self_s"`
}

// spanLog keeps spans in memory until the run ends.
type spanLog struct {
	origin time.Time
	spans  []span
}

func newSpanLog() *spanLog { return &spanLog{origin: time.Now()} }

// begin opens a span under parent and returns its index.
func (l *spanLog) begin(name string, parent int) int {
	l.spans = append(l.spans, span{Name: name, Parent: parent, Start: time.Since(l.origin).Seconds()})
	return len(l.spans) - 1
}

// end closes span i and returns its duration.
func (l *spanLog) end(i int) time.Duration {
	s := &l.spans[i]
	s.End = time.Since(l.origin).Seconds()
	return time.Duration((s.End - s.Start) * 1e9)
}

type spanFile struct {
	Spans []span `json:"spans"`
}

// writeSpans sets every span's self time and writes the spans as JSON to
// path.
func writeSpans(path string, spans []span) error {
	setSelfTimes(spans)
	data, err := json.MarshalIndent(spanFile{Spans: spans}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// setSelfTimes sets each span's Self: its duration minus its children's.
// Spans are recorded sequentially, so children never overlap one another
// or outlast their parent.
func setSelfTimes(spans []span) {
	for i := range spans {
		spans[i].Self = spans[i].End - spans[i].Start
	}
	for _, s := range spans {
		if s.Parent >= 0 {
			spans[s.Parent].Self -= s.End - s.Start
		}
	}
}
