package network

import (
	"testing"

	"sdsrp/internal/core"
	"sdsrp/internal/geo"
	"sdsrp/internal/mobility"
	"sdsrp/internal/msg"
	"sdsrp/internal/policy"
	"sdsrp/internal/routing"
	"sdsrp/internal/sim"
	"sdsrp/internal/stats"
)

// newEnergyRig is newRig with a battery model attached.
func newEnergyRig(n int, energy EnergyConfig) *rig {
	r := &rig{eng: sim.NewEngine(), collector: stats.NewCollector()}
	models := make([]mobility.Model, n)
	for i := 0; i < n; i++ {
		pp := &puppet{p: geo.Point{X: float64(10000 + 1000*i), Y: 0}}
		r.puppets = append(r.puppets, pp)
		models[i] = pp
		r.hosts = append(r.hosts, routing.NewHost(routing.HostConfig{
			ID: i, Nodes: n, Buffer: 10000,
			Policy: policy.FIFO{}, Proto: routing.SprayAndWait{Binary: true},
			Rate:   core.FixedRate{Mean: 1200},
			Clock:  r.eng.Now,
			Tracer: r.collector,
		}))
	}
	r.mgr = mustManager(NewManager(r.eng, Config{
		Area: geo.NewRect(50000, 1000), Range: 100, Bandwidth: 100, ScanInterval: 1,
		Energy: energy, Tracer: r.collector,
	}, r.hosts, models))
	r.mgr.Start()
	return r
}

func TestEnergyDisabledByDefault(t *testing.T) {
	r := newRig(2, 10000)
	r.eng.Run(10)
	if rep := r.mgr.EnergyReport(); rep.Enabled {
		t.Fatal("energy enabled without config")
	}
}

func TestEnergyScanDrainKillsRadios(t *testing.T) {
	// 10 J budget, 1 J/s scan drain: radios die at t=10.
	r := newEnergyRig(2, EnergyConfig{Capacity: 10, ScanPerSec: 1})
	r.puppets[0].p = geo.Point{X: 0, Y: 0}
	r.puppets[1].p = geo.Point{X: 50, Y: 0}
	r.eng.Run(30)
	rep := r.mgr.EnergyReport()
	if !rep.Enabled || rep.DeadNodes != 2 {
		t.Fatalf("report = %+v", rep)
	}
	if rep.FirstDeath != 10 {
		t.Fatalf("first death at %v, want 10", rep.FirstDeath)
	}
	if r.mgr.ActiveLinks() != 0 {
		t.Fatal("dead nodes still linked")
	}
	if rep.MeanLevel != 0 {
		t.Fatalf("mean level = %v", rep.MeanLevel)
	}
}

func TestEnergyTotalUsedCapsAtCapacity(t *testing.T) {
	// 3 J per 1 s tick against 10 J batteries: the fourth tick finds 1 J
	// left, so each node uses its 10 J and no more.
	r := newEnergyRig(2, EnergyConfig{Capacity: 10, ScanPerSec: 3})
	r.eng.Run(30)
	rep := r.mgr.EnergyReport()
	if rep.DeadNodes != 2 || rep.TotalUsed != 20 {
		t.Fatalf("dead = %d, used = %v; want 2 nodes, 20 J", rep.DeadNodes, rep.TotalUsed)
	}
	if rep.FirstDeath != 4 {
		t.Fatalf("first death at %v, want 4", rep.FirstDeath)
	}
}

func TestEnergyTransferDrain(t *testing.T) {
	// No scan drain; only the 5 s delivery transfer costs energy:
	// sender 5×2 = 10 J, receiver 5×1 = 5 J.
	r := newEnergyRig(2, EnergyConfig{Capacity: 100, TxPerSec: 2, RxPerSec: 1})
	r.hosts[0].Originate(&testMsg, 0)
	r.puppets[0].p = geo.Point{X: 0, Y: 0}
	r.puppets[1].p = geo.Point{X: 50, Y: 0}
	r.eng.Run(30)
	rep := r.mgr.EnergyReport()
	if rep.TotalUsed != 15 {
		t.Fatalf("energy used = %v, want 15", rep.TotalUsed)
	}
	if rep.DeadNodes != 0 {
		t.Fatal("unexpected deaths")
	}
	if r.collector.Summarize().Delivered != 1 {
		t.Fatal("delivery failed under energy model")
	}
}

func TestEnergyAbortedTransferChargedPartially(t *testing.T) {
	r := newEnergyRig(2, EnergyConfig{Capacity: 100, TxPerSec: 2, RxPerSec: 1})
	r.hosts[0].Originate(&testMsg2, 0)
	r.puppets[0].p = geo.Point{X: 0, Y: 0}
	r.puppets[1].p = geo.Point{X: 50, Y: 0}
	// Transfer runs 1..6; separation observed at the t=3 scan: 2 s elapsed.
	r.eng.At(2.5, func(float64) { r.puppets[1].p = geo.Point{X: 5000, Y: 0} })
	r.eng.Run(30)
	rep := r.mgr.EnergyReport()
	if rep.TotalUsed != 6 { // 2s × (2+1)
		t.Fatalf("energy used = %v, want 6", rep.TotalUsed)
	}
}

func TestEnergyDeathSilencesNode(t *testing.T) {
	// The sender has only enough for ~4 s of its own scanning + transmit
	// time; it dies mid-run and stops originating contacts.
	r := newEnergyRig(3, EnergyConfig{Capacity: 8, ScanPerSec: 1})
	r.puppets[0].p = geo.Point{X: 0, Y: 0}
	r.puppets[1].p = geo.Point{X: 50, Y: 0}
	r.eng.Run(7) // both drained 7 J: alive, link up
	if r.mgr.ActiveLinks() != 1 {
		t.Fatalf("links = %d before death", r.mgr.ActiveLinks())
	}
	r.eng.Run(30) // die at t=8
	if r.mgr.ActiveLinks() != 0 {
		t.Fatal("links survive battery death")
	}
	// A third node parked next to a dead one gets no contact.
	r.puppets[2].p = geo.Point{X: 25, Y: 0}
	before := r.mgr.Contacts()
	r.eng.Run(40)
	if r.mgr.Contacts() != before {
		t.Fatal("dead node formed a new contact")
	}
}

// TestEnergyAbortDeathRefusesSameTickUp: a tick's downs are torn down before
// its ups come up, and an abort among them can drain a radio dead that the
// scan found on. Node 0 sends to node 1 from t = 1; at t = 2.5 node 1 jumps
// beside node 2, so the t = 3 tick tears down (0, 1), whose abort drains
// both batteries dry, and finds (1, 2) in range. That up must not come up,
// and the scan must not count the pair as up afterwards.
func TestEnergyAbortDeathRefusesSameTickUp(t *testing.T) {
	r := newEnergyRig(3, EnergyConfig{Capacity: 2, TxPerSec: 2, RxPerSec: 1})
	r.hosts[0].Originate(&testMsg2, 0)
	r.puppets[0].p = geo.Point{X: 0, Y: 0}
	r.puppets[1].p = geo.Point{X: 50, Y: 0}
	r.eng.At(2.5, func(float64) {
		r.puppets[1].p = geo.Point{X: 5000, Y: 0}
		r.puppets[2].p = geo.Point{X: 5050, Y: 0}
	})
	r.eng.Run(10)
	if c, l := r.mgr.Contacts(), r.mgr.ActiveLinks(); c != 1 || l != 0 {
		t.Fatalf("contacts = %d, links = %d; want 1 and 0: the dead radio's pair came up", c, l)
	}
	if got := r.mgr.ScanStats(); got != 12 {
		t.Fatalf("pairs checked = %d, want 12", got)
	}
	if rep := r.mgr.EnergyReport(); rep.DeadNodes != 2 {
		t.Fatalf("dead nodes = %d, want 2", rep.DeadNodes)
	}
}

// Shared fixtures for energy tests (package-level so Originate sees stable
// pointers).
var testMsg = msgFixture(1)
var testMsg2 = msgFixture(2)

func msgFixture(id int32) msgT {
	return msgT{ID: msg.ID(id), Source: 0, Dest: 1, Size: 500,
		Created: 0, TTL: 1e9, InitialCopies: 8}
}

type msgT = msg.Message
