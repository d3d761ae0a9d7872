package network

import (
	"testing"

	"sdsrp/internal/core"
	"sdsrp/internal/fault"
	"sdsrp/internal/geo"
	"sdsrp/internal/mobility"
	"sdsrp/internal/obs"
	"sdsrp/internal/policy"
	"sdsrp/internal/rng"
	"sdsrp/internal/routing"
	"sdsrp/internal/sim"
	"sdsrp/internal/stats"
)

// newFaultRig mirrors newRig with a fault injector wired in (and an
// optional tracer).
func newFaultRig(n int, bufBytes int64, fcfg fault.Config, tr obs.Tracer) *rig {
	r := &rig{eng: sim.NewEngine(), collector: stats.NewCollector()}
	tr = obs.Multi(r.collector, tr)
	inj := fault.New(fcfg, rng.New(99).Split("fault"), n, nil)
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
			Role:   inj.Role(i),
		}))
	}
	r.mgr = mustManager(NewManager(r.eng, Config{
		Area: geo.NewRect(50000, 1000), Range: 100, Bandwidth: 100, ScanInterval: 1,
		Tracer: tr, Faults: inj,
	}, r.hosts, models))
	r.mgr.Start()
	return r
}

// TestTransferLossDiscardsEverything: with loss probability 1 no transfer
// ever commits — zero deliveries, zero forwards, every completion counted
// as lost — yet the sender's copy and tokens stay intact.
func TestTransferLossDiscardsEverything(t *testing.T) {
	r := newFaultRig(2, 10000, fault.Config{TransferLossProb: 1}, nil)
	r.hosts[0].Originate(r.msg(1, 0, 1, 8, 500), 0)
	r.puppets[0].p = geo.Point{X: 0, Y: 0}
	r.puppets[1].p = geo.Point{X: 50, Y: 0}
	r.eng.Run(30)
	s := r.collector.Summarize()
	if s.Delivered != 0 || s.Forwards != 0 {
		t.Fatalf("delivered=%d forwards=%d under total loss", s.Delivered, s.Forwards)
	}
	if s.Lost == 0 {
		t.Fatal("no transfers counted as lost")
	}
	if got := r.hosts[0].Buffer().Get(1); got == nil || got.Copies != 8 {
		t.Fatalf("sender state perturbed by wire loss: %+v", got)
	}
	// Lossy completions free the link: every completed transfer was
	// started, and retries keep coming while the contact lasts.
	if s.Started < s.Lost || s.Lost < 2 {
		t.Fatalf("started=%d lost=%d, want continuing retries", s.Started, s.Lost)
	}
}

// TestLinkFlapCutsContacts: a tiny mean up-time chops the standing contact
// into flaps, and the pair stays down until the nodes separate.
func TestLinkFlapCutsContacts(t *testing.T) {
	metrics := obs.NewLedger()
	r := newFaultRig(2, 10000, fault.Config{LinkFlapMeanUp: 2}, metrics)
	r.puppets[0].p = geo.Point{X: 0, Y: 0}
	r.puppets[1].p = geo.Point{X: 50, Y: 0}
	r.eng.Run(100)
	if metrics.Count(obs.LinkFlap) == 0 {
		t.Fatal("no link_flap events despite a 2 s mean up-time")
	}
	// Every flap is followed by a contact_down; the pair never re-ups
	// while in range, so exactly one contact_up exists.
	if up := metrics.Count(obs.ContactUp); up != 1 {
		t.Fatalf("contact_up = %d, want 1 (flapped pair must stay down in range)", up)
	}
	if r.mgr.ActiveLinks() != 0 {
		t.Fatal("flapped link still active")
	}

	// Separation clears the suppression: move apart, then together again.
	r.puppets[1].p = geo.Point{X: 5000, Y: 0}
	r.eng.Run(105)
	r.puppets[1].p = geo.Point{X: 50, Y: 0}
	r.eng.Run(110)
	if up := metrics.Count(obs.ContactUp); up != 2 {
		t.Fatalf("contact_up = %d after re-approach, want 2", up)
	}
}

// TestChurnCrashReboot: a churned node goes dark (links torn, no re-up
// while down), reboots, and — with WipeOnReboot — loses its buffer.
func TestChurnCrashReboot(t *testing.T) {
	metrics := obs.NewLedger()
	r := newFaultRig(2, 10000, fault.Config{
		Churn: fault.Churn{MeanUp: 5, MeanDown: 5, WipeOnReboot: true},
	}, metrics)
	r.hosts[0].Originate(r.msg(1, 0, 1, 8, 500), 0)
	r.puppets[0].p = geo.Point{X: 0, Y: 0}
	r.puppets[1].p = geo.Point{X: 50, Y: 0}
	r.eng.Run(200)
	downs, ups := metrics.Count(obs.NodeDown), metrics.Count(obs.NodeUp)
	if downs == 0 {
		t.Fatal("no node_down events despite a 5 s mean uptime")
	}
	if ups == 0 || downs < ups {
		t.Fatalf("node_down=%d node_up=%d inconsistent", downs, ups)
	}
	// Contacts were repeatedly re-established after reboots.
	if metrics.Count(obs.ContactUp) < 2 {
		t.Fatalf("contact_up = %d, want churn-driven reconnects", metrics.Count(obs.ContactUp))
	}
}

// TestChurnWipeLosesBuffer pins the wipe semantics end to end: crash the
// only copy holder and the message is gone for good.
func TestChurnWipeLosesBuffer(t *testing.T) {
	r := newFaultRig(2, 10000, fault.Config{
		Churn: fault.Churn{MeanUp: 3, MeanDown: 1, WipeOnReboot: true},
	}, nil)
	r.hosts[0].Originate(r.msg(1, 0, 1, 8, 500), 0)
	// Nodes stay apart: the message cannot replicate before the crash, and
	// the wipe on the first reboot erases the only copy for good.
	r.eng.Run(200)
	if r.hosts[0].Buffer().Has(1) {
		t.Fatal("buffer survived a wiping reboot")
	}
}

// TestBandwidthJitterStretchesTransfers: with a pinned 0.5 multiplier the
// 500 B / 100 B/s transfer takes 10 s instead of 5.
func TestBandwidthJitterStretchesTransfers(t *testing.T) {
	r := newFaultRig(2, 10000, fault.Config{
		BandwidthJitterLo: 0.5, BandwidthJitterHi: 0.5,
	}, nil)
	r.hosts[0].Originate(r.msg(1, 0, 1, 8, 500), 0)
	r.puppets[0].p = geo.Point{X: 0, Y: 0}
	r.puppets[1].p = geo.Point{X: 50, Y: 0}
	r.eng.Run(30)
	s := r.collector.Summarize()
	if s.Delivered != 1 {
		t.Fatalf("delivered = %d", s.Delivered)
	}
	// Scan at t=1 starts the transfer; 500/(100*0.5) = 10 s → t=11.
	if s.AvgLatency != 11 {
		t.Fatalf("latency = %v, want 11 under halved bandwidth", s.AvgLatency)
	}
}
