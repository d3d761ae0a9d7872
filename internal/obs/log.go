package obs

import (
	"bufio"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"

	"sdsrp/internal/msg"
)

// typeByName inverts Type.String for the offline decode path.
var typeByName = func() map[string]Type {
	m := make(map[string]Type, numTypes)
	for t := Type(0); int(t) < numTypes; t++ {
		m[t.String()] = t
	}
	return m
}()

// TypeByName resolves a wire name ("created", "snapshot", …) back to its
// Type. ok is false for unknown names.
func TypeByName(name string) (Type, bool) {
	t, ok := typeByName[name]
	return t, ok
}

// eventWire mirrors the JSONL field set for decoding. Fields absent from a
// line stay zero, matching the encoder's "meaningful fields only" contract.
type eventWire struct {
	T          float64 `json:"t"`
	Type       string  `json:"type"`
	Msg        int64   `json:"msg"`
	Node       int     `json:"node"`
	Peer       int     `json:"peer"`
	Size       int64   `json:"size"`
	Copies     int     `json:"copies"`
	Hops       int     `json:"hops"`
	Latency    float64 `json:"latency"`
	Priority   float64 `json:"priority"`
	Kind       string  `json:"kind"`
	LiveMsgs   int     `json:"live_msgs"`
	LiveCopies int     `json:"live_copies"`
	Contacts   int     `json:"contacts"`
	Queue      int     `json:"queue"`
	Fill       float64 `json:"fill"`
	Used       []int64 `json:"used"`
}

// ParseEvent decodes one JSONL line back into an Event. It is the inverse
// of AppendJSON for every event type, including snapshots.
func ParseEvent(line []byte) (Event, error) {
	var w eventWire
	if err := json.Unmarshal(line, &w); err != nil {
		return Event{}, fmt.Errorf("obs: bad event line: %w", err)
	}
	t, ok := TypeByName(w.Type)
	if !ok {
		return Event{}, fmt.Errorf("obs: unknown event type %q", w.Type)
	}
	return Event{
		T:          w.T,
		Type:       t,
		Msg:        msg.ID(w.Msg),
		Node:       w.Node,
		Peer:       w.Peer,
		Size:       w.Size,
		Copies:     w.Copies,
		Hops:       w.Hops,
		Latency:    w.Latency,
		Priority:   w.Priority,
		Kind:       w.Kind,
		LiveMsgs:   w.LiveMsgs,
		LiveCopies: w.LiveCopies,
		Contacts:   w.Contacts,
		Queue:      w.Queue,
		Fill:       w.Fill,
		Used:       w.Used,
	}, nil
}

// LogReader streams events from a JSONL log, tracking line numbers for
// error reporting and diff context.
type LogReader struct {
	s    *bufio.Scanner
	line int
}

// NewLogReader reads events from r (one JSON object per line). Snapshot
// lines carry per-node arrays, so the line buffer allows up to 16 MiB.
func NewLogReader(r io.Reader) *LogReader {
	s := bufio.NewScanner(r)
	s.Buffer(make([]byte, 0, 64<<10), 16<<20)
	return &LogReader{s: s}
}

// Next returns the next event. It returns io.EOF at end of input and a
// line-numbered error on malformed lines.
func (r *LogReader) Next() (Event, error) {
	for r.s.Scan() {
		r.line++
		raw := r.s.Bytes()
		if len(raw) == 0 {
			continue
		}
		ev, err := ParseEvent(raw)
		if err != nil {
			return Event{}, fmt.Errorf("line %d: %w", r.line, err)
		}
		return ev, nil
	}
	if err := r.s.Err(); err != nil {
		return Event{}, err
	}
	return Event{}, io.EOF
}

// Line returns the line number of the event most recently returned by Next.
func (r *LogReader) Line() int { return r.line }

// OpenLog opens an event log for reading, transparently decompressing when
// the path ends in ".gz". Closing the returned reader closes the file.
func OpenLog(path string) (io.ReadCloser, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	if !strings.HasSuffix(path, ".gz") {
		return f, nil
	}
	zr, err := gzip.NewReader(f)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("obs: %s: %w", path, err)
	}
	return &gzipReadCloser{zr: zr, f: f}, nil
}

type gzipReadCloser struct {
	zr *gzip.Reader
	f  *os.File
}

func (g *gzipReadCloser) Read(p []byte) (int, error) { return g.zr.Read(p) }

func (g *gzipReadCloser) Close() error {
	zerr := g.zr.Close()
	ferr := g.f.Close()
	if zerr != nil {
		return zerr
	}
	return ferr
}

// CreateLog creates an event log for writing, transparently gzipping when
// the path ends in ".gz". Closing the returned writer flushes the
// compressor and closes the file.
func CreateLog(path string) (io.WriteCloser, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if !strings.HasSuffix(path, ".gz") {
		return f, nil
	}
	return &gzipWriteCloser{zw: gzip.NewWriter(f), f: f}, nil
}

type gzipWriteCloser struct {
	zw *gzip.Writer
	f  *os.File
}

func (g *gzipWriteCloser) Write(p []byte) (int, error) { return g.zw.Write(p) }

func (g *gzipWriteCloser) Close() error {
	zerr := g.zw.Close()
	ferr := g.f.Close()
	if zerr != nil {
		return zerr
	}
	return ferr
}
