package network

import (
	"math"
	"testing"

	"sdsrp/internal/core"
	"sdsrp/internal/geo"
	"sdsrp/internal/mobility"
	"sdsrp/internal/msg"
	"sdsrp/internal/obs"
	"sdsrp/internal/policy"
	"sdsrp/internal/rng"
	"sdsrp/internal/routing"
	"sdsrp/internal/sim"
	"sdsrp/internal/stats"
)

// puppet is a test mobility model whose position is set explicitly.
type puppet struct{ p geo.Point }

func (m *puppet) Pos(float64) geo.Point { return m.p }

// MaxSpeed implements mobility.Model: puppets teleport, so no finite bound
// exists and the lazy scanner checks them every tick.
func (m *puppet) MaxSpeed() float64 { return math.Inf(1) }

type rig struct {
	eng       *sim.Engine
	collector *stats.Collector
	inter     *stats.Intermeeting
	hosts     []*routing.Host
	puppets   []*puppet
	mgr       *Manager
}

// mustManager unwraps NewManager in test rigs where the config is known
// good.
func mustManager(m *Manager, err error) *Manager {
	if err != nil {
		panic(err)
	}
	return m
}

// newRig builds n hosts at given positions with 100 B/s bandwidth,
// 100 m range, and 1 s scans.
func newRig(n int, bufBytes int64) *rig {
	r := &rig{eng: sim.NewEngine(), collector: stats.NewCollector(), inter: &stats.Intermeeting{}}
	tr := obs.Multi(r.collector, r.inter)
	models := make([]mobility.Model, n)
	for i := 0; i < n; i++ {
		pp := &puppet{p: geo.Point{X: float64(10000 + 1000*i), Y: 0}} // far apart
		r.puppets = append(r.puppets, pp)
		models[i] = pp
		r.hosts = append(r.hosts, routing.NewHost(routing.HostConfig{
			ID: i, Nodes: n, Buffer: bufBytes,
			Policy: policy.FIFO{}, Proto: routing.SprayAndWait{Binary: true},
			Rate:   core.FixedRate{Mean: 1200},
			Clock:  r.eng.Now,
			Tracer: tr,
		}))
	}
	r.mgr = mustManager(NewManager(r.eng, Config{
		Area: geo.NewRect(50000, 1000), Range: 100, Bandwidth: 100, ScanInterval: 1,
		Tracer: tr,
	}, r.hosts, models))
	r.mgr.Start()
	return r
}

func (r *rig) msg(id msg.ID, src, dst, copies int, size int64) *msg.Message {
	return &msg.Message{ID: id, Source: src, Dest: dst, Size: size,
		Created: r.eng.Now(), TTL: 1e9, InitialCopies: copies}
}

func TestLinkUpAndDelivery(t *testing.T) {
	r := newRig(2, 10000)
	r.hosts[0].Originate(r.msg(1, 0, 1, 8, 500), 0)
	// Put both nodes together: contact from the first scan.
	r.puppets[0].p = geo.Point{X: 0, Y: 0}
	r.puppets[1].p = geo.Point{X: 50, Y: 0}
	r.eng.Run(30)
	if r.mgr.Contacts() != 1 || r.mgr.ActiveLinks() != 1 {
		t.Fatalf("contacts=%d links=%d", r.mgr.Contacts(), r.mgr.ActiveLinks())
	}
	s := r.collector.Summarize()
	if s.Delivered != 1 {
		t.Fatalf("delivered = %d", s.Delivered)
	}
	// 500 B at 100 B/s = 5 s; the scan fires at t=1, so delivery at t=6.
	if rec := s.AvgLatency; rec != 6 {
		t.Fatalf("latency = %v, want 6", rec)
	}
}

func TestTransferAbortOnLinkDown(t *testing.T) {
	r := newRig(2, 10000)
	r.hosts[0].Originate(r.msg(1, 0, 1, 8, 500), 0)
	r.puppets[0].p = geo.Point{X: 0, Y: 0}
	r.puppets[1].p = geo.Point{X: 50, Y: 0}
	// Separate them at t=3 (mid-transfer: transfer runs 1..6).
	r.eng.At(2.5, func(float64) { r.puppets[1].p = geo.Point{X: 5000, Y: 0} })
	r.eng.Run(30)
	s := r.collector.Summarize()
	if s.Delivered != 0 {
		t.Fatal("delivered despite abort")
	}
	if s.Aborted != 1 || s.Started != 1 {
		t.Fatalf("aborted=%d started=%d", s.Aborted, s.Started)
	}
	// The sender's copy is intact for the next contact.
	if got := r.hosts[0].Buffer().Get(1); got == nil || got.Copies != 8 {
		t.Fatal("sender state corrupted by abort")
	}
}

func TestRetryAfterReunion(t *testing.T) {
	r := newRig(2, 10000)
	r.hosts[0].Originate(r.msg(1, 0, 1, 8, 500), 0)
	r.puppets[0].p = geo.Point{X: 0, Y: 0}
	r.puppets[1].p = geo.Point{X: 50, Y: 0}
	r.eng.At(2.5, func(float64) { r.puppets[1].p = geo.Point{X: 5000, Y: 0} })
	r.eng.At(10, func(float64) { r.puppets[1].p = geo.Point{X: 60, Y: 0} })
	r.eng.Run(60)
	s := r.collector.Summarize()
	if s.Delivered != 1 {
		t.Fatalf("delivered = %d after reunion", s.Delivered)
	}
	if r.mgr.Contacts() != 2 {
		t.Fatalf("contacts = %d", r.mgr.Contacts())
	}
}

func TestIntermeetingRecorded(t *testing.T) {
	r := newRig(2, 10000)
	r.puppets[0].p = geo.Point{X: 0, Y: 0}
	r.puppets[1].p = geo.Point{X: 50, Y: 0}
	r.eng.At(5.5, func(float64) { r.puppets[1].p = geo.Point{X: 5000, Y: 0} })
	r.eng.At(20.5, func(float64) { r.puppets[1].p = geo.Point{X: 50, Y: 0} })
	r.eng.Run(30)
	if r.inter.Count() != 1 {
		t.Fatalf("intermeeting samples = %d", r.inter.Count())
	}
	// Down observed at the t=6 scan, up again at the t=21 scan.
	if got := r.inter.Mean(); got != 15 {
		t.Fatalf("intermeeting = %v, want 15", got)
	}
}

func TestHalfDuplexSerializesTransfers(t *testing.T) {
	// One source, two neighbours: the source can only feed one at a time.
	r := newRig(3, 10000)
	r.hosts[0].Originate(r.msg(1, 0, 2, 8, 500), 0)
	r.puppets[0].p = geo.Point{X: 0, Y: 0}
	r.puppets[1].p = geo.Point{X: 50, Y: 0}  // relay
	r.puppets[2].p = geo.Point{X: -50, Y: 0} // destination
	r.eng.Run(3.5)                           // one transfer window only (5s each)
	if r.collector.Started != 1 {
		t.Fatalf("started = %d, want 1 (half duplex)", r.collector.Started)
	}
	r.eng.Run(30)
	s := r.collector.Summarize()
	if s.Delivered != 1 {
		t.Fatalf("delivered = %d", s.Delivered)
	}
	// Delivery first (to 2), then spray to 1: two completed transfers.
	if s.Forwards != 2 {
		t.Fatalf("forwards = %d", s.Forwards)
	}
	if got := r.hosts[1].Buffer().Get(1); got == nil {
		t.Fatal("relay never got the spray")
	}
}

func TestRefusalNotReofferedWithinContact(t *testing.T) {
	// Receiver's buffer holds a fresher message under SW-O; the incoming
	// stale message is refused once and not retried for the contact.
	r := newRig(2, 10000)
	// Swap policies: rebuild host 1 with SW-O and a tiny buffer.
	r.hosts[1] = routing.NewHost(routing.HostConfig{
		ID: 1, Nodes: 2, Buffer: 500,
		Policy: policy.TTLRatio{}, Proto: routing.SprayAndWait{Binary: true},
		Rate:  core.FixedRate{Mean: 1200},
		Clock: r.eng.Now, Tracer: r.collector,
	})
	// Fresh message already at the receiver.
	fresh := &msg.Message{ID: 5, Source: 1, Dest: 0, Size: 500, Created: 0, TTL: 1e6, InitialCopies: 1}
	r.hosts[1].Originate(fresh, 0)
	// Stale message at the sender (about to expire).
	stale := &msg.Message{ID: 6, Source: 0, Dest: 9999, Size: 500, Created: 0, TTL: 400, InitialCopies: 8}
	_ = stale
	r.hosts[0].Originate(&msg.Message{ID: 6, Source: 0, Dest: 1, Size: 500, Created: 0, TTL: 400, InitialCopies: 8}, 0)
	_ = fresh
	r.puppets[0].p = geo.Point{X: 0, Y: 0}
	r.puppets[1].p = geo.Point{X: 50, Y: 0}
	r.eng.Run(30)
	// Message 6 is deliverable to host 1 (dest=1), so it is delivered, not
	// refused. This test instead checks its reverse: host 1's message 5 is
	// deliverable to host 0 — both get through. Deliveries bypass buffers.
	s := r.collector.Summarize()
	if s.Delivered != 2 {
		t.Fatalf("delivered = %d", s.Delivered)
	}
}

// setupCongestedPair builds two SW-O hosts with one-slot buffers: host 1
// holds a fresh message, host 0 a near-expiry one. preflight selects the
// overflow semantics under test.
func setupCongestedPair(r *rig, preflight bool) {
	for i := 0; i < 2; i++ {
		r.hosts[i] = routing.NewHost(routing.HostConfig{
			ID: i, Nodes: 2, Buffer: 500,
			Policy: policy.TTLRatio{}, Proto: routing.SprayAndWait{Binary: true},
			Rate:              core.FixedRate{Mean: 1200},
			PreflightEviction: preflight,
			Clock:             r.eng.Now, Tracer: r.collector,
		})
	}
	// Receiver full with a fresh message destined elsewhere.
	r.hosts[1].Originate(&msg.Message{ID: 5, Source: 1, Dest: 99, Size: 500, Created: 0, TTL: 1e6, InitialCopies: 8}, 0)
	// Sender has a near-expiry message for a third party: the weakest under SW-O.
	r.hosts[0].Originate(&msg.Message{ID: 6, Source: 0, Dest: 98, Size: 500, Created: 0, TTL: 500, InitialCopies: 8}, 0)
	r.puppets[0].p = geo.Point{X: 0, Y: 0}
	r.puppets[1].p = geo.Point{X: 50, Y: 0}
}

func TestPreflightModeRefusesWeakNewcomer(t *testing.T) {
	r := newRig(2, 10000)
	setupCongestedPair(r, true)
	r.eng.Run(30)
	s := r.collector.Summarize()
	if s.Refused == 0 {
		t.Fatal("no refusal recorded")
	}
	if s.Started != 1 { // only 1→0 spray of message 5 runs
		t.Fatalf("started = %d, want 1", s.Started)
	}
	if r.hosts[1].Buffer().Has(6) {
		t.Fatal("refused message stored anyway")
	}
}

func TestReceiveThenDropWastesTransfer(t *testing.T) {
	// Default Algorithm 1 semantics: the stale spray transfers anyway,
	// costs a forward and the sender's tokens, and is dropped on arrival.
	r := newRig(2, 10000)
	setupCongestedPair(r, false)
	r.eng.Run(30)
	s := r.collector.Summarize()
	if s.Started != 2 {
		t.Fatalf("started = %d, want both directions to transfer", s.Started)
	}
	if r.hosts[1].Buffer().Has(6) {
		t.Fatal("weak newcomer stored")
	}
	// The sender's tokens were destroyed by the arrival drop.
	if got := r.hosts[0].Buffer().Get(6); got != nil && got.Copies == 8 {
		t.Fatal("sender tokens not spent on the wasted spray")
	}
	if s.PolicyDrops == 0 {
		t.Fatal("arrival drop not counted")
	}
}

func TestScanIsDeterministic(t *testing.T) {
	run := func() stats.Summary {
		eng := sim.NewEngine()
		collector := stats.NewCollector()
		const n = 20
		hosts := make([]*routing.Host, n)
		models := make([]mobility.Model, n)
		area := geo.NewRect(800, 800)
		for i := 0; i < n; i++ {
			hosts[i] = routing.NewHost(routing.HostConfig{
				ID: i, Nodes: n, Buffer: 2000,
				Policy: policy.FIFO{}, Proto: routing.SprayAndWait{Binary: true},
				Rate:  core.FixedRate{Mean: 600},
				Clock: eng.Now, Tracer: collector,
			})
			models[i] = mobility.NewRandomWaypoint(area, 5, 5, 0, 0, rng.New(uint64(i)))
		}
		mgr := mustManager(NewManager(eng, Config{Area: area, Range: 60, Bandwidth: 250, ScanInterval: 1,
			Tracer: collector}, hosts, models))
		mgr.Start()
		// Traffic: a message every 40 s between fixed pairs.
		id := msg.ID(0)
		eng.Every(40, func(now float64) {
			id++
			src := int(id) % n
			dst := (int(id) + 7) % n
			hosts[src].Originate(&msg.Message{ID: id, Source: src, Dest: dst,
				Size: 500, Created: now, TTL: 2000, InitialCopies: 8}, now)
			mgr.Kick(src, now)
		})
		eng.Run(2000)
		return collector.Summarize()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("runs diverged:\n%+v\n%+v", a, b)
	}
	if a.Created == 0 || a.Forwards == 0 {
		t.Fatalf("degenerate run: %+v", a)
	}
}

func TestPerNodeRanges(t *testing.T) {
	// Node 0 has a 200 m radio, node 1 a 60 m radio, node 2 a 200 m radio.
	// Contact requires BOTH radios to reach: 0-1 at 100 m apart stay
	// disconnected (1's radio is too short); 0-2 at 150 m connect.
	eng := sim.NewEngine()
	collector := stats.NewCollector()
	hosts := make([]*routing.Host, 3)
	models := make([]mobility.Model, 3)
	pos := []geo.Point{{X: 0, Y: 0}, {X: 100, Y: 0}, {X: 0, Y: 150}}
	for i := range hosts {
		hosts[i] = routing.NewHost(routing.HostConfig{
			ID: i, Nodes: 3, Buffer: 10000,
			Policy: policy.FIFO{}, Proto: routing.SprayAndWait{Binary: true},
			Rate:  core.FixedRate{Mean: 1200},
			Clock: eng.Now, Tracer: collector,
		})
		models[i] = &puppet{p: pos[i]}
	}
	mgr := mustManager(NewManager(eng, Config{
		Area: geo.NewRect(1000, 1000), Range: 100, Bandwidth: 100, ScanInterval: 1,
		Ranges: []float64{200, 60, 200}, Tracer: collector,
	}, hosts, models))
	mgr.Start()
	eng.Run(5)
	if mgr.ActiveLinks() != 1 {
		t.Fatalf("links = %d, want only the 0-2 link", mgr.ActiveLinks())
	}
	if mgr.Contacts() != 1 {
		t.Fatalf("contacts = %d", mgr.Contacts())
	}
}

func TestNewManagerRejectsBadInputs(t *testing.T) {
	eng := sim.NewEngine()
	collector := stats.NewCollector()
	h := routing.NewHost(routing.HostConfig{
		ID: 0, Nodes: 1, Buffer: 10, Policy: policy.FIFO{},
		Proto: routing.SprayAndWait{Binary: true}, Rate: core.FixedRate{Mean: 1},
		Clock: eng.Now, Tracer: collector,
	})
	if _, err := NewManager(eng, Config{Area: geo.NewRect(10, 10), Range: 1, Bandwidth: 1,
		ScanInterval: 1}, []*routing.Host{h}, []mobility.Model{&puppet{}}); err == nil {
		t.Fatal("no error without a tracer")
	}
	if _, err := NewManager(eng, Config{Area: geo.NewRect(10, 10), Range: 1, Bandwidth: 1,
		ScanInterval: 1, Ranges: []float64{1, 2}, Tracer: collector},
		[]*routing.Host{h}, []mobility.Model{&puppet{}}); err == nil {
		t.Fatal("no error on bad Ranges length")
	}
	if _, err := NewManager(eng, Config{Area: geo.NewRect(10, 10), Range: 1, Bandwidth: 1,
		ScanInterval: 1, Tracer: collector},
		[]*routing.Host{h}, nil); err == nil {
		t.Fatal("no error on hosts/models mismatch")
	}
	for name, cfg := range map[string]Config{
		"record and replay":     {RecordPlan: &ContactPlan{}, ReplayPlan: &ContactPlan{nodes: 1}},
		"non-empty recording":   {RecordPlan: &ContactPlan{horizon: 3}},
		"plan of another fleet": {ReplayPlan: &ContactPlan{nodes: 2}},
	} {
		cfg.Area, cfg.Range, cfg.Bandwidth, cfg.ScanInterval = geo.NewRect(10, 10), 1, 1, 1
		cfg.Tracer = collector
		if _, err := NewManager(eng, cfg, []*routing.Host{h}, []mobility.Model{&puppet{}}); err == nil {
			t.Errorf("no error on a contact plan misuse: %s", name)
		}
	}
}

func TestTransferAbortsWhenMessageExpiresInFlight(t *testing.T) {
	r := newRig(2, 10000)
	// TTL 3 s: the 5 s transfer (starting at the t=1 scan) outlives it.
	m := &msg.Message{ID: 1, Source: 0, Dest: 1, Size: 500, Created: 0,
		TTL: 3, InitialCopies: 8}
	r.hosts[0].Originate(m, 0)
	r.puppets[0].p = geo.Point{X: 0, Y: 0}
	r.puppets[1].p = geo.Point{X: 50, Y: 0}
	r.eng.Run(30)
	s := r.collector.Summarize()
	if s.Delivered != 0 {
		t.Fatal("expired message delivered")
	}
	if s.Aborted == 0 {
		t.Fatal("in-flight expiry not counted as abort")
	}
	if s.Forwards != 0 {
		t.Fatal("expired transfer counted as forward")
	}
}

func TestTransferAbortsWhenSenderCopyEvictedInFlight(t *testing.T) {
	r := newRig(2, 10000)
	// Tiny sender buffer: originating a second message mid-transfer evicts
	// the in-flight one (FIFO evicts oldest).
	r.hosts[0] = routing.NewHost(routing.HostConfig{
		ID: 0, Nodes: 2, Buffer: 500,
		Policy: policy.FIFO{}, Proto: routing.SprayAndWait{Binary: true},
		Rate:  core.FixedRate{Mean: 1200},
		Clock: r.eng.Now, Tracer: r.collector,
	})
	r.hosts[0].Originate(&msg.Message{ID: 1, Source: 0, Dest: 1, Size: 500,
		Created: 0, TTL: 1e6, InitialCopies: 8}, 0)
	r.puppets[0].p = geo.Point{X: 0, Y: 0}
	r.puppets[1].p = geo.Point{X: 50, Y: 0}
	// Transfer runs 1..6; at t=3 a new origination evicts message 1.
	r.eng.At(3, func(now float64) {
		r.hosts[0].Originate(&msg.Message{ID: 2, Source: 0, Dest: 99, Size: 500,
			Created: now, TTL: 1e6, InitialCopies: 8}, now)
	})
	r.eng.Run(30)
	s := r.collector.Summarize()
	if s.Delivered != 0 {
		t.Fatal("evicted in-flight message delivered")
	}
	if s.Aborted == 0 {
		t.Fatal("mid-flight eviction not treated as abort")
	}
}
