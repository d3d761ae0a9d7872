package network

import (
	"fmt"
	"hash/fnv"
	"math"
	"strings"
	"testing"
	"time"

	"sdsrp/internal/core"
	"sdsrp/internal/geo"
	"sdsrp/internal/mobility"
	"sdsrp/internal/msg"
	"sdsrp/internal/obs"
	"sdsrp/internal/policy"
	"sdsrp/internal/rng"
	"sdsrp/internal/routing"
	"sdsrp/internal/sim"
)

// eventHash is a tracer folding every event's type, time and parties into
// one running hash, order included.
type eventHash struct{ h uint64 }

func (e *eventHash) Emit(ev obs.Event) {
	f := fnv.New64a()
	fmt.Fprintf(f, "%d %x %d %d %d", ev.Type, math.Float64bits(ev.T), ev.Node, ev.Peer, ev.Msg)
	e.h = e.h*1099511628211 ^ f.Sum64()
}

// walkers builds a started manager over n random-waypoint walkers in a
// 600 m square (100 m radios, 1 s scans), each model passed through wrap,
// with a message at every node so that contacts carry transfers.
func walkers(n int, wrap func(mobility.Model) mobility.Model) (*sim.Engine, *Manager, *eventHash) {
	eng := sim.NewEngine()
	tr := &eventHash{}
	area := geo.NewRect(600, 600)
	hosts := make([]*routing.Host, n)
	models := make([]mobility.Model, n)
	root := rng.New(7)
	for i := range hosts {
		hosts[i] = routing.NewHost(routing.HostConfig{
			ID: i, Nodes: n, Buffer: 1e6,
			Policy: policy.FIFO{}, Proto: routing.SprayAndWait{Binary: true},
			Rate:  core.FixedRate{Mean: 1200},
			Clock: eng.Now, Tracer: tr,
		})
		models[i] = wrap(mobility.NewRandomWaypoint(area, 1, 8, 0, 20, root.SplitIndex("node", i)))
	}
	m := mustManager(NewManager(eng, Config{
		Area: area, Range: 100, Bandwidth: 250, ScanInterval: 1, Tracer: tr,
	}, hosts, models))
	for i, h := range hosts {
		h.Originate(&msg.Message{ID: msg.ID(i + 1), Source: i, Dest: (i + 1) % n,
			Size: 1000, TTL: 1e9, InitialCopies: 4}, 0)
	}
	m.Start()
	return eng, m, tr
}

// outcome is what a walkers run must reproduce: its events, contacts and
// pairs checked.
type outcome struct {
	events   uint64
	contacts int
	checked  uint64
}

func outcomeOf(m *Manager, tr *eventHash) outcome {
	return outcome{events: tr.h, contacts: m.Contacts(), checked: m.ScanStats()}
}

// lockstepWalkers runs walkers(n, wrap) to horizon with the scan in
// lockstep.
func lockstepWalkers(n int, wrap func(mobility.Model) mobility.Model, horizon float64) outcome {
	eng, m, tr := walkers(n, wrap)
	eng.Run(horizon)
	return outcomeOf(m, tr)
}

// inFlight returns how many scanned ticks wait for the engine: the rest of
// the chunk it applies from and every filled chunk. Call on the engine's
// goroutine.
func (a *runAhead) inFlight(applied int64) (ticks int64, ready int) {
	a.mu.Lock()
	defer a.mu.Unlock()
	for _, c := range a.ready {
		ticks += int64(len(c.checked))
	}
	if c := a.cur; c != nil {
		ticks += c.first + int64(len(c.checked)) - applied
	}
	return ticks, len(a.ready) + len(a.spare)
}

// TestRunAheadSlowConsumer slows the engine down (it sleeps every few
// ticks) so the scanner fills the stream: it must stop at the lookahead,
// never hold more than its chunks, finish without deadlock and reproduce
// the lockstep run.
func TestRunAheadSlowConsumer(t *testing.T) {
	const n, horizon = 16, 2000
	same := func(m mobility.Model) mobility.Model { return m }
	want := lockstepWalkers(n, same, horizon)

	eng, m, tr := walkers(n, same)
	stop := m.RunAhead(horizon)
	defer stop()
	var most int64
	eng.Every(1, func(now float64) {
		ticks, chunks := m.ahead.inFlight(m.scans)
		if ticks > lookahead || chunks > streamChunks {
			t.Errorf("at %v s: %d ticks in %d chunks in flight, bounds %d and %d", now, ticks, chunks, lookahead, streamChunks)
		}
		most = max(most, ticks)
		if int(now)%8 == 0 {
			time.Sleep(200 * time.Microsecond)
		}
	})
	eng.Run(horizon)
	stop()
	if got := outcomeOf(m, tr); got != want {
		t.Fatalf("run-ahead %+v, lockstep %+v", got, want)
	}
	if most < lookahead-chunkTicks {
		t.Fatalf("at most %d ticks in flight: the scanner never ran ahead to the %d-tick lookahead", most, lookahead)
	}
	if m.ahead != nil {
		t.Fatal("the stream outlived a run that applied every tick")
	}
}

// sleepy stalls the scanner at one tick in 100: its first position sample
// there sleeps.
type sleepy struct {
	mobility.Model
	slept *float64
}

func (s sleepy) Pos(t float64) geo.Point {
	if int(t)%100 == 0 && *s.slept != t {
		*s.slept = t
		time.Sleep(100 * time.Microsecond)
	}
	return s.Model.Pos(t)
}

// TestRunAheadSlowProducer slows the scanner down so the engine keeps
// waiting for it: the run must finish without deadlock and reproduce the
// lockstep run.
func TestRunAheadSlowProducer(t *testing.T) {
	const n, horizon = 16, 1500
	slow := func(m mobility.Model) mobility.Model { return sleepy{m, new(float64)} }
	want := lockstepWalkers(n, slow, horizon)

	eng, m, tr := walkers(n, slow)
	stop := m.RunAhead(horizon)
	eng.Run(horizon)
	stop()
	if got := outcomeOf(m, tr); got != want {
		t.Fatalf("run-ahead %+v, lockstep %+v", got, want)
	}
}

// faulty panics on the first position sample at or after its fault time.
type faulty struct {
	mobility.Model
	at float64
}

func (f faulty) Pos(t float64) geo.Point {
	if t >= f.at {
		panic(fmt.Sprintf("model fault at %v s", t))
	}
	return f.Model.Pos(t)
}

// TestRunAheadPanicReachesEngine: a model panicking on the scanner's
// goroutine must not crash the process. The panic surfaces on the engine's
// goroutine, from the Scan event of the tick that raised it, as in a
// lockstep run, carrying the model's message and the scanner's stack, and
// the goroutine has ended.
func TestRunAheadPanicReachesEngine(t *testing.T) {
	const n, horizon = 16, 2000
	broken := func(m mobility.Model) mobility.Model { return faulty{m, 700} }
	run := func(ahead bool) (recovered any, tick int64, m *Manager) {
		eng, m, _ := walkers(n, broken)
		defer func() { recovered, tick = recover(), m.scans }()
		if ahead {
			stop := m.RunAhead(horizon)
			defer stop()
		}
		eng.Run(horizon)
		return nil, 0, m
	}
	got, tick, m := run(true)
	p, ok := got.(*scanPanic)
	if !ok {
		t.Fatalf("recovered %T %v, want the scanner's panic", got, got)
	}
	if text := fmt.Sprint(p); !strings.Contains(text, "model fault at 700 s") || !strings.Contains(text, "faulty.Pos") {
		t.Fatalf("panic text lacks the model's message or stack:\n%s", text)
	}
	want, wantTick, _ := run(false)
	if want == nil || tick != wantTick {
		t.Fatalf("run-ahead panicked at tick %d, lockstep at tick %d (%v)", tick, wantTick, want)
	}
	if m.ahead.running {
		t.Fatal("the scanner goroutine is still marked running")
	}
}
