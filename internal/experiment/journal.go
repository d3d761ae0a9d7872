package experiment

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"sync"

	"sdsrp/internal/config"
	"sdsrp/internal/network"
	"sdsrp/internal/obs"
	"sdsrp/internal/stats"
	"sdsrp/internal/world"
)

// Journal entry statuses.
const (
	// StatusDone marks a run that completed and carries its Result; resume
	// skips these.
	StatusDone = "done"
	// StatusFailed marks a run whose every attempt errored; resume re-runs
	// these.
	StatusFailed = "failed"
)

// Entry is one journaled run outcome: the scenario's content address plus
// enough of the result to make a resumed sweep byte-identical to an
// uninterrupted one without re-executing the run. Seed, policy, and name are
// recorded redundantly (they are folded into the digest) so the journal
// stays greppable by humans.
type Entry struct {
	Digest   string `json:"digest"`
	Name     string `json:"name"`
	Seed     uint64 `json:"seed"`
	Policy   string `json:"policy"`
	Status   string `json:"status"`
	Attempts int    `json:"attempts"`
	// Error holds the final attempt's error text for failed entries.
	Error string `json:"error,omitempty"`
	// Result is present iff Status is StatusDone.
	Result *JournalResult `json:"result,omitempty"`
}

// F64 is a float64 that survives the JSON round trip bit-for-bit: finite
// values use Go's shortest round-trip number formatting, and the values
// plain JSON cannot encode (±Inf from a zero-delivery overhead ratio, NaN)
// are spelled as quoted strings. Without this, journaling a Result with
// OverheadRatio = +Inf would fail outright.
type F64 float64

// MarshalJSON encodes finite values as JSON numbers and non-finite values
// as the strings "+Inf", "-Inf", and "NaN".
func (f F64) MarshalJSON() ([]byte, error) {
	v := float64(f)
	switch {
	case math.IsInf(v, 1):
		return []byte(`"+Inf"`), nil
	case math.IsInf(v, -1):
		return []byte(`"-Inf"`), nil
	case math.IsNaN(v):
		return []byte(`"NaN"`), nil
	}
	return json.Marshal(v)
}

// UnmarshalJSON is the inverse of MarshalJSON.
func (f *F64) UnmarshalJSON(b []byte) error {
	switch string(b) {
	case `"+Inf"`:
		*f = F64(math.Inf(1))
		return nil
	case `"-Inf"`:
		*f = F64(math.Inf(-1))
		return nil
	case `"NaN"`:
		*f = F64(math.NaN())
		return nil
	}
	var v float64
	if err := json.Unmarshal(b, &v); err != nil {
		return err
	}
	*f = F64(v)
	return nil
}

// JournalResult is the wire form of a world.Result. The result structs
// travel as fields, float64s spelled by F64's rules, so the stored metrics
// round-trip bit-exactly; the scenario is stored in its resolved form
// (world.Build fills Nodes and Area for trace-driven and group scenarios),
// so a reloaded Result equals the live one field for field.
//
// Only WallSeconds and the scan-work fields of Perf (the pair counters,
// ScanFallback and Replayed, which depend on whether the run replayed a
// sweep sibling's contact schedule) may differ between two executions of
// the same scenario; a resumed sweep reports the journaled values.
type JournalResult struct {
	Scenario            config.Scenario              `json:"scenario"`
	Summary             fields[stats.Summary]        `json:"summary"`
	Contacts            int                          `json:"contacts"`
	MeanContactDuration F64                          `json:"mean_contact_duration"`
	Energy              fields[network.EnergyReport] `json:"energy"`
	Perf                fields[obs.RunStats]         `json:"perf"`
}

func newJournalResult(r world.Result) *JournalResult {
	return &JournalResult{
		Scenario:            r.Scenario,
		Summary:             fields[stats.Summary]{r.Summary},
		Contacts:            r.Contacts,
		MeanContactDuration: F64(r.MeanContactDuration),
		Energy:              fields[network.EnergyReport]{r.Energy},
		Perf:                fields[obs.RunStats]{r.Perf},
	}
}

// Restore reconstructs the live world.Result the entry was recorded from.
func (jr *JournalResult) Restore() world.Result {
	return world.Result{
		Summary:             jr.Summary.v,
		Scenario:            jr.Scenario,
		Contacts:            jr.Contacts,
		MeanContactDuration: float64(jr.MeanContactDuration),
		Energy:              jr.Energy.v,
		Perf:                jr.Perf.v,
	}
}

// fields is a flat result struct in its journal form: one JSON object with
// the struct's fields in declaration order under their json tags, omitempty
// honoured, every float64 spelled by F64's rules. Decoding looks each
// field's key up, so absent keys leave zeros and unknown keys are ignored.
type fields[T any] struct{ v T }

// MarshalJSON implements json.Marshaler.
func (f fields[T]) MarshalJSON() ([]byte, error) {
	v := reflect.ValueOf(f.v)
	b := []byte{'{'}
	for i := 0; i < v.NumField(); i++ {
		key, omitEmpty := jsonKey(v.Type().Field(i))
		if key == "" {
			return nil, fmt.Errorf("experiment: %s.%s has no json key", v.Type(), v.Type().Field(i).Name)
		}
		fv := v.Field(i)
		if omitEmpty && fv.IsZero() {
			continue
		}
		val := fv.Interface()
		if x, ok := val.(float64); ok {
			val = F64(x)
		}
		enc, err := json.Marshal(val)
		if err != nil {
			return nil, err
		}
		if len(b) > 1 {
			b = append(b, ',')
		}
		b = append(append(strconv.AppendQuote(b, key), ':'), enc...)
	}
	return append(b, '}'), nil
}

// UnmarshalJSON implements json.Unmarshaler.
func (f *fields[T]) UnmarshalJSON(data []byte) error {
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(data, &raw); err != nil {
		return err
	}
	v := reflect.ValueOf(&f.v).Elem()
	for i := 0; i < v.NumField(); i++ {
		key, _ := jsonKey(v.Type().Field(i))
		enc, ok := raw[key]
		if !ok {
			continue
		}
		dst := v.Field(i).Addr().Interface()
		if p, ok := dst.(*float64); ok {
			dst = (*F64)(p)
		}
		if err := json.Unmarshal(enc, dst); err != nil {
			return fmt.Errorf("%s: %w", key, err)
		}
	}
	return nil
}

// jsonKey returns a field's key from its json tag and whether the tag says
// omitempty.
func jsonKey(sf reflect.StructField) (key string, omitEmpty bool) {
	key, opts, _ := strings.Cut(sf.Tag.Get("json"), ",")
	return key, opts == "omitempty"
}

// Journal is a crash-safe, append-only JSONL manifest of finished runs,
// keyed by scenario digest. Concurrency-safe: the experiment runner records
// entries from every worker goroutine.
//
// Durability model:
//
//   - Record appends one JSON line and fsyncs it, so a crash mid-sweep
//     loses at most the runs still in flight — never an already-recorded
//     one.
//   - OpenJournal tolerates a truncated tail line (the signature of a crash
//     mid-append) by dropping it, then rewrites the surviving entries
//     atomically (tmp file + fsync + rename) so the on-disk journal is
//     whole again before any new entry is appended.
//   - Re-recording a digest is last-writer-wins, both in memory and across
//     reloads (later lines shadow earlier ones; compaction keeps only the
//     winner).
//
// The journal contains no timestamps and no map-ordered emission, but its
// lines follow the order in which runs finish, which varies with several
// workers, and each line carries its run's wall time. What a resumed sweep
// reproduces byte for byte is its output, the property the kill-and-resume
// gate (make resume-smoke) checks end to end.
type Journal struct {
	//lint:invariant the mutex serializes appends from sweep workers AFTER their runs complete; journal writes happen outside every engine's dispatch loop and feed nothing back into it
	mu      sync.Mutex
	path    string
	f       *os.File
	entries map[string]Entry
	// order holds digests in first-recorded order so compaction and
	// Entries emit deterministically without ranging over the map.
	order []string
}

// OpenJournal opens (creating if needed) the journal at path, loads every
// surviving entry, heals a truncated tail, and leaves the file open for
// appends. Corruption anywhere but the final line is reported as an error:
// a journal with a damaged interior records runs that can no longer be
// trusted, and silently dropping them would resurrect completed work.
func OpenJournal(path string) (*Journal, error) {
	j := &Journal{path: path, entries: make(map[string]Entry)}
	data, err := os.ReadFile(path)
	switch {
	case errors.Is(err, os.ErrNotExist):
		// Fresh journal.
	case err != nil:
		return nil, fmt.Errorf("experiment: journal: %w", err)
	default:
		if err := j.load(data); err != nil {
			return nil, err
		}
		// Heal: rewrite the surviving entries atomically so a dropped
		// truncated tail cannot corrupt the first appended line.
		if err := j.compact(); err != nil {
			return nil, err
		}
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("experiment: journal: %w", err)
	}
	j.f = f
	return j, nil
}

// load parses the journal body, tolerating a truncated final line.
func (j *Journal) load(data []byte) error {
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	var lines []string
	for sc.Scan() {
		lines = append(lines, sc.Text())
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("experiment: journal %s: %w", j.path, err)
	}
	for i, line := range lines {
		if strings.TrimSpace(line) == "" {
			continue
		}
		var e Entry
		if err := json.Unmarshal([]byte(line), &e); err != nil || e.Digest == "" {
			if i == len(lines)-1 {
				// A torn final line is the expected crash signature:
				// the run it described was in flight and will re-run.
				continue
			}
			return fmt.Errorf("experiment: journal %s: line %d corrupt (only the final line may be truncated): %v",
				j.path, i+1, err)
		}
		j.remember(e)
	}
	return nil
}

// remember indexes an entry, last-writer-wins.
func (j *Journal) remember(e Entry) {
	if _, seen := j.entries[e.Digest]; !seen {
		j.order = append(j.order, e.Digest)
	}
	j.entries[e.Digest] = e
}

// compact atomically rewrites the journal with the surviving deduplicated
// entries: write to a tmp file, fsync it, rename over the journal, fsync
// the directory. A crash at any point leaves either the old or the new
// journal intact, never a blend.
func (j *Journal) compact() error {
	tmp, err := os.CreateTemp(filepath.Dir(j.path), filepath.Base(j.path)+".tmp*")
	if err != nil {
		return fmt.Errorf("experiment: journal compact: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	w := bufio.NewWriter(tmp)
	for _, d := range j.order {
		line, err := json.Marshal(j.entries[d])
		if err != nil {
			tmp.Close()
			return fmt.Errorf("experiment: journal compact: %w", err)
		}
		w.Write(line)
		w.WriteByte('\n')
	}
	if err := w.Flush(); err != nil {
		tmp.Close()
		return fmt.Errorf("experiment: journal compact: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("experiment: journal compact: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("experiment: journal compact: %w", err)
	}
	if err := os.Rename(tmp.Name(), j.path); err != nil {
		return fmt.Errorf("experiment: journal compact: %w", err)
	}
	syncDir(filepath.Dir(j.path))
	return nil
}

// syncDir fsyncs a directory so a just-renamed file survives a crash.
// Best-effort: some filesystems refuse directory fsync, and losing the
// rename durability there degrades to re-running a few journaled runs.
func syncDir(dir string) {
	d, err := os.Open(dir)
	if err != nil {
		return
	}
	d.Sync()
	d.Close()
}

// Record appends one entry and fsyncs the journal. Safe for concurrent use.
func (j *Journal) Record(e Entry) error {
	line, err := json.Marshal(e)
	if err != nil {
		return fmt.Errorf("experiment: journal record: %w", err)
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return fmt.Errorf("experiment: journal %s is closed", j.path)
	}
	if _, err := j.f.Write(append(line, '\n')); err != nil {
		return fmt.Errorf("experiment: journal record: %w", err)
	}
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("experiment: journal record: %w", err)
	}
	j.remember(e)
	return nil
}

// RecordResult journals a completed run under its digest.
func (j *Journal) RecordResult(digest string, sc config.Scenario, res world.Result, attempts int) error {
	return j.Record(Entry{
		Digest:   digest,
		Name:     sc.Name,
		Seed:     sc.Seed,
		Policy:   sc.PolicyName,
		Status:   StatusDone,
		Attempts: attempts,
		Result:   newJournalResult(res),
	})
}

// RecordFailure journals a run whose every attempt errored.
func (j *Journal) RecordFailure(digest string, sc config.Scenario, runErr error, attempts int) error {
	return j.Record(Entry{
		Digest:   digest,
		Name:     sc.Name,
		Seed:     sc.Seed,
		Policy:   sc.PolicyName,
		Status:   StatusFailed,
		Attempts: attempts,
		Error:    runErr.Error(),
	})
}

// Lookup returns the latest entry recorded for a digest.
func (j *Journal) Lookup(digest string) (Entry, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	e, ok := j.entries[digest]
	return e, ok
}

// Len returns the number of distinct digests journaled.
func (j *Journal) Len() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return len(j.entries)
}

// Entries returns every surviving entry in first-recorded order.
func (j *Journal) Entries() []Entry {
	j.mu.Lock()
	defer j.mu.Unlock()
	out := make([]Entry, 0, len(j.order))
	for _, d := range j.order {
		out = append(out, j.entries[d])
	}
	return out
}

// Close syncs and closes the journal file. The Journal remains readable
// (Lookup/Entries) but further Records fail.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	f := j.f
	j.f = nil
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("experiment: journal close: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("experiment: journal close: %w", err)
	}
	return nil
}
