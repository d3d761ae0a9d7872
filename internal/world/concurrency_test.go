package world

import (
	"bytes"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"sdsrp/internal/trace"
)

// TestWorkerCountsMatchSerial pins the isolation the experiment runner's
// worker pool (experiment.Options.Workers, `experiments -workers`) relies
// on, and which the shared-mutable, no-conc-sim and rng-escape analyzers
// certify statically: worlds share no mutable state, so a run's event
// stream cannot depend on how many other worlds run beside it in the
// process. Across every family and seed of the scanner-differential
// matrix, each of `workers` copies built and run on their own goroutines at
// once must emit the serial run's trace byte for byte, with the same
// summary, contact digest, contact log and event accounting, for
// workers ∈ {2, 4}. Under -race the same runs are the detector's witness.
func TestWorkerCountsMatchSerial(t *testing.T) {
	for name, mk := range diffFamilies() {
		for _, seed := range []uint64{1, 2, 3} {
			sc := mk()
			sc.Seed = seed
			sc.Name = fmt.Sprintf("wdiff-%s-%d", name, seed)
			t.Run(sc.Name, func(t *testing.T) {
				t.Parallel()
				serial, resS, logS, err := runScenario(sc)
				if err != nil {
					t.Fatalf("serial run: %v", err)
				}
				for _, workers := range []int{2, 4} {
					traces := make([][]byte, workers)
					results := make([]Result, workers)
					logs := make([][]trace.Contact, workers)
					errs := make([]error, workers)
					var wg sync.WaitGroup
					for i := range workers {
						wg.Add(1)
						go func() {
							defer wg.Done()
							traces[i], results[i], logs[i], errs[i] = runScenario(sc)
						}()
					}
					wg.Wait()
					for i := range workers {
						if errs[i] != nil {
							t.Fatalf("workers=%d copy %d: %v", workers, i, errs[i])
						}
						if line, s, p, ok := firstDiff(serial, traces[i]); !ok {
							t.Fatalf("workers=%d copy %d diverges at trace line %d:\n  serial: %s\n  copy:   %s",
								workers, i, line, s, p)
						}
						resP := results[i]
						if resS.Summary != resP.Summary {
							t.Fatalf("summaries diverge at workers=%d:\nserial: %+v\ncopy:   %+v",
								workers, resS.Summary, resP.Summary)
						}
						if resS.Contacts != resP.Contacts || resS.MeanContactDuration != resP.MeanContactDuration {
							t.Fatalf("contact digests diverge at workers=%d", workers)
						}
						if !reflect.DeepEqual(logS, logs[i]) {
							t.Fatalf("recorded contact logs diverge at workers=%d", workers)
						}
						if resS.Perf.Events != resP.Perf.Events || resS.Perf.PeakQueue != resP.Perf.PeakQueue {
							t.Fatalf("event accounting diverges at workers=%d: serial (%d, %d) copy (%d, %d)",
								workers, resS.Perf.Events, resS.Perf.PeakQueue, resP.Perf.Events, resP.Perf.PeakQueue)
						}
					}
				}
			})
		}
	}
}

// firstDiff reports whether two traces are byte-identical and, if not, the
// first diverging line (1-based) with both sides; a length mismatch
// reports the first line past the shorter trace.
func firstDiff(a, b []byte) (line int, al, bl []byte, same bool) {
	if bytes.Equal(a, b) {
		return 0, nil, nil, true
	}
	as, bs := bytes.Split(a, []byte("\n")), bytes.Split(b, []byte("\n"))
	for i := range min(len(as), len(bs)) {
		if !bytes.Equal(as[i], bs[i]) {
			return i + 1, as[i], bs[i], false
		}
	}
	n := min(len(as), len(bs))
	if len(as) > n {
		return n + 1, as[n], nil, false
	}
	return n + 1, nil, bs[n], false
}
