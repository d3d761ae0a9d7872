// Package network implements the radio model: grid-accelerated contact
// detection and half-duplex, bandwidth-limited transfers that abort when
// nodes move out of range. It has two parts: the scanner (scan.go), which
// turns motion into link transitions, and the link layer (this file), which
// applies them and runs the transfers on top. Worlds whose links depend on
// motion alone run the scanner ahead of the engine on a goroutine of its own
// (ahead.go).
//
// Semantics (matching what the paper's ONE setup exercises):
//
//   - Nodes are in contact while within Range metres; the scanner samples
//     positions every ScanInterval seconds and diffs the in-range pair set.
//   - A node runs at most one transfer at a time (send or receive); a link
//     carries at most one active transfer.
//   - A transfer takes size/Bandwidth seconds. Link-down mid-transfer
//     aborts it: the receiver discards partial data, the sender's state is
//     untouched.
//   - When a link is idle, the sender's buffer-management policy picks the
//     next message (routing.Host.NextOffer, the paper's Algorithm 1
//     ordering). The receiver refuses up-front only what its dropped list
//     rejects (or, in the preflight-eviction ablation, what its buffer
//     policy would discard); refused and arrival-dropped messages are not
//     re-offered during the same contact.
//   - Optional per-node radio ranges (both radios must reach), a battery
//     model (EnergyConfig), and contact-trace replay (StartScheduled)
//     extend the paper's fixed setup.
//
//lint:shard-safe manager state is per-run; map iteration feeding the event stream is collect-then-sort throughout
package network

import (
	"fmt"
	"slices"

	"sdsrp/internal/fault"
	"sdsrp/internal/geo"
	"sdsrp/internal/mobility"
	"sdsrp/internal/msg"
	"sdsrp/internal/obs"
	"sdsrp/internal/routing"
	"sdsrp/internal/sim"
)

// Config parameterizes the radio model.
type Config struct {
	Area         geo.Rect
	Range        float64 // metres
	Bandwidth    float64 // bytes per second
	ScanInterval float64 // seconds between connectivity scans
	// Ranges optionally gives each node its own radio range; nil uses
	// Range for everyone. Two nodes are in contact when their distance is
	// at most the smaller of their ranges (a link needs both directions).
	Ranges []float64
	// Energy enables the per-node battery model when Capacity > 0.
	Energy EnergyConfig
	// Tracer receives contact, transfer and fault events; the run's
	// counters are folded from it. Required.
	Tracer obs.Tracer
	// Faults is the run's fault injector; nil disables fault injection at
	// zero cost (every hot-path probe is a nil-guarded branch).
	Faults *fault.Injector
	// Planner forces one contact-scan planner; the zero value, which every
	// production caller uses, lets the manager pick by fleet size (see
	// kineticFrom). The differential tests and scan benchmarks force the
	// others. Every planner emits the same event stream byte for byte.
	Planner Planner
	// CellSize overrides the scan grid's bucket edge length in metres
	// (0 uses the largest radio range, the minimum legal value — smaller
	// buckets would let the 3×3 neighbourhood miss contacts). Larger
	// buckets trade candidate-set tightness for fewer kinetic wheel wakes
	// and a smaller cell table over sparse areas; contact semantics are
	// unchanged, but the grid's enumeration order (and therefore
	// same-tick link-up order) differs between cell sizes, so traces are
	// only comparable across runs using the same value.
	CellSize float64
	// RecordPlan, when set, receives every link transition the scan makes
	// (see ContactPlan); it must be empty. The scanner writes it, ahead of
	// the engine in a run-ahead world, and the recording is whole once the
	// run reaches its horizon and Run has returned.
	RecordPlan *ContactPlan
	// ReplayPlan, when set, replaces the scan: each tick applies the plan's
	// recorded transitions instead, and no scan planner is built. The plan
	// must come from a whole recording of a run with the same motion,
	// node count, range, cell size, scan interval and horizon.
	ReplayPlan *ContactPlan
}

// Planner identifies a contact-scan planner.
type Planner uint8

const (
	// AutoPlanner picks NaivePlanner below kineticFrom nodes and
	// KineticPlanner from there.
	AutoPlanner Planner = iota
	// NaivePlanner re-checks every pair on its neighbour list each tick,
	// rebuilding the list every K ticks (nlist.go): where the kinetic
	// planner's load monitor retires to.
	NaivePlanner
	// KineticPlanner parks nodes (kinetic.go).
	KineticPlanner
	// ReferencePlanner is the naive scan with no certificate: its list is
	// rebuilt every tick at the largest range, a plain per-tick grid pass.
	// It is the reference the differential tests hold every planner to, and
	// only tests force it.
	ReferencePlanner
)

// kineticFrom is the fleet size from which AutoPlanner picks the kinetic
// planner over the naive scan. PERFORMANCE.md §19 re-measures §7's
// crossover rows with the naive scan on its neighbour list: naive leads or
// ties kinetic from 100 to 1 000 nodes and on densescan, and kinetic leads
// the 10 000-node fleet-10k workload end to end. 400 keeps densescan and
// every larger fleet on the kinetic planner; where between 1 000 and
// 10 000 nodes the crossover now lies is not measured.
const kineticFrom = 400

// pairKey identifies an unordered host pair, low id first.
type pairKey [2]int32

func keyOf(a, b int) pairKey {
	if a > b {
		a, b = b, a
	}
	return pairKey{int32(a), int32(b)}
}

// cmpPairKeys orders pair keys lexicographically: the canonical order for
// pairs collected from the scanner's up record before any teardown or event
// emission, so the record's internal order never reaches observable output.
func cmpPairKeys(x, y pairKey) int {
	if x[0] != y[0] {
		return int(x[0]) - int(y[0])
	}
	return int(x[1]) - int(y[1])
}

type transfer struct {
	link      *link
	sender    *routing.Host
	receiver  *routing.Host
	offer     routing.Offer
	done      sim.EventID
	startedAt float64
}

type link struct {
	key    pairKey
	a, b   *routing.Host // a.ID() < b.ID()
	upAt   float64
	active *transfer
	// refusedTo[0] holds ids refused by b (direction a→b); refusedTo[1]
	// ids refused by a (direction b→a). Each map is allocated on the
	// direction's first refusal and dies with the contact.
	refusedTo [2]map[msg.ID]bool
	// flip alternates which direction gets first pick, for fairness
	// during long contacts.
	flip bool
	// bw is this contact's bandwidth multiplier (1 unless the fault
	// layer's jitter model drew otherwise).
	bw float64
	// flapTimer, when armed, force-drops the link early (fault layer).
	flapTimer sim.EventID
}

// refuse records that direction dir's receiver refused message id for the
// rest of this contact.
func (l *link) refuse(dir int, id msg.ID) {
	if l.refusedTo[dir] == nil {
		l.refusedTo[dir] = make(map[msg.ID]bool)
	}
	l.refusedTo[dir][id] = true
}

// Manager is the link layer of one simulation run: it owns the links and
// transfer scheduling, and applies the scanner's transitions.
type Manager struct {
	eng   *sim.Engine
	cfg   Config
	hosts []*routing.Host

	// adj[i] holds node i's up links in key order, which is ascending peer
	// order too: peers below i carry keys (peer, i) and sort first, by
	// peer; peers above i carry keys (i, peer), whose low id i exceeds
	// every earlier one.
	adj  [][]*link
	busy []bool
	// links counts the up links.
	links int

	tracer obs.Tracer

	contacts int
	energy   *energyState

	// ended and upTime are the count and total length of finished
	// contacts, summed in teardown order.
	ended  int
	upTime float64

	faults *fault.Injector
	// down marks churn-crashed nodes (nil unless churn is enabled).
	down []bool

	// scan is the scanner; nil in replaying and contact-trace runs, which
	// build none.
	scan *scanner
	// ahead streams the scanner's ticks from its own goroutine while a
	// run-ahead world runs (nil otherwise, and once a run has applied every
	// tick of the stream).
	ahead *runAhead
	// next is the scan ticker's next firing, where a fresh stream starts.
	next sim.Ticker
	// fallback names the planner retirement the applied ticks took, if any
	// (see FallbackReason).
	fallback string
	// freedBuf is per-tick scratch, reused so a steady-state scan tick
	// allocates nothing.
	freedBuf []int
	// scans counts Scan calls; the current tick's index is scans-1.
	scans int64
	// cursor is the next unreplayed entry of cfg.ReplayPlan.ticks.
	cursor int
	// Scan-strategy counters of the applied ticks (see ScanStats).
	pairsChecked uint64
	pairsSkipped uint64
	wakeups      uint64
}

// NewManager wires the radio model. hosts[i] moves along models[i]. It
// returns an error on inconsistent inputs (mismatched hosts/models or
// per-node range table, a missing tracer) — these come from user-assembled
// configuration, not programmer invariants.
func NewManager(eng *sim.Engine, cfg Config, hosts []*routing.Host, models []mobility.Model) (*Manager, error) {
	if cfg.Tracer == nil {
		return nil, fmt.Errorf("network: no tracer")
	}
	if len(hosts) != len(models) {
		return nil, fmt.Errorf("network: %d hosts but %d mobility models", len(hosts), len(models))
	}
	n := len(hosts)
	maxRange := cfg.Range
	if cfg.Ranges != nil {
		if len(cfg.Ranges) != n {
			return nil, fmt.Errorf("network: %d per-node ranges for %d hosts", len(cfg.Ranges), n)
		}
		for _, r := range cfg.Ranges {
			if r > maxRange {
				maxRange = r
			}
		}
	}
	cell := maxRange
	if cfg.CellSize != 0 {
		if cfg.CellSize < maxRange {
			return nil, fmt.Errorf("network: cell size %v is below the largest radio range %v (a 3×3 bucket neighbourhood would miss contacts)", cfg.CellSize, maxRange)
		}
		cell = cfg.CellSize
	}
	m := &Manager{
		eng:    eng,
		cfg:    cfg,
		hosts:  hosts,
		adj:    make([][]*link, n),
		busy:   make([]bool, n),
		tracer: cfg.Tracer,
		energy: newEnergyState(cfg.Energy, n),
		faults: cfg.Faults,
	}
	if m.faults.ChurnEnabled() {
		m.down = make([]bool, n)
	}
	if err := m.checkPlans(); err != nil {
		return nil, err
	}
	if cfg.RecordPlan != nil {
		cfg.RecordPlan.nodes = n
	}
	if cfg.ReplayPlan == nil {
		m.scan = newScanner(m, models, cell, maxRange)
	}
	return m, nil
}

// coupled reports whether links can depend on more than motion: the battery
// model (transfers drain radios dead), churn or link flapping (both cut links
// outside the scan). Such a world scans in lockstep and shares no contact
// plan.
func (m *Manager) coupled() bool {
	return m.energy != nil || m.faults.ChurnEnabled() || m.faults.FlapEnabled()
}

// FallbackReason names the planner retirement this run took,
// "kinetic:load-monitor->naive", or returns "" when the planner held. The
// kinetic planner retires at most once: its load monitor hands the rest of
// the run to the naive scan. Retirement is byte-identity-preserving; this
// string exists so capacity planning never has to infer the active planner
// from counters.
func (m *Manager) FallbackReason() string { return m.fallback }

// ScanStats reports the scan planner's work counters: distance-predicate
// evaluations performed, ticks of work skipped by parking (parked
// node-ticks under the kinetic planner; always 0 under the naive scan), and
// wheel wakeups (nodes). These describe planner work, not simulation
// outcome — they differ across planners while the event trace stays
// byte-identical.
func (m *Manager) ScanStats() (checked, skipped, wakeups uint64) {
	return m.pairsChecked, m.pairsSkipped, m.wakeups
}

// Replaying reports whether the run's contacts come from Config.ReplayPlan
// instead of a scan; its ScanStats are then zero because no scan ran.
func (m *Manager) Replaying() bool { return m.cfg.ReplayPlan != nil }

// Start schedules the periodic connectivity scan. Call once before
// Engine.Run. The scan then runs in lockstep with the engine unless
// RunAhead moves it to a goroutine of its own.
func (m *Manager) Start() {
	m.scheduleChurn()
	m.next = sim.Ticker{At: m.eng.Now(), Period: m.cfg.ScanInterval}.Next()
	m.eng.Every(m.cfg.ScanInterval, m.Scan)
}

// Contacts returns the number of contacts (link-up events) so far.
func (m *Manager) Contacts() int { return m.contacts }

// ActiveLinks returns the number of links currently up.
func (m *Manager) ActiveLinks() int { return m.links }

// linkOf returns the up link for pair k, or nil, searching the shorter of
// the two endpoints' key-ordered adjacency lists.
func (m *Manager) linkOf(k pairKey) *link {
	ls := m.adj[k[0]]
	if other := m.adj[k[1]]; len(other) < len(ls) {
		ls = other
	}
	if i, ok := slices.BinarySearchFunc(ls, k, cmpLinkKey); ok {
		return ls[i]
	}
	return nil
}

// cmpLinkKey compares l's key with k (cmpPairKeys).
func cmpLinkKey(l *link, k pairKey) int { return cmpPairKeys(l.key, k) }

// insertLink adds l to a node's adjacency list, keeping it in key order.
func insertLink(ls []*link, l *link) []*link {
	i, _ := slices.BinarySearchFunc(ls, l.key, cmpLinkKey)
	return slices.Insert(ls, i, l)
}

// removeLink deletes l from a node's adjacency list, keeping it in key
// order.
func removeLink(ls []*link, l *link) []*link {
	i := slices.Index(ls, l)
	return slices.Delete(ls, i, i+1)
}

// MeanContactDuration returns the mean length in seconds of finished
// contacts, or 0 before any ends (links still up at the horizon are not
// included).
func (m *Manager) MeanContactDuration() float64 {
	if m.ended == 0 {
		return 0
	}
	return m.upTime / float64(m.ended)
}

// Scan makes one scan tick at time now: it takes the tick's transitions
// from the run-ahead stream, the replayed plan or an inline scan, and
// applies them. Exported for tests; normally driven by Start. Every planner
// emits a byte-identical event stream, and so does the replay of a plan one
// of them recorded, wherever the scanner ran.
func (m *Manager) Scan(now float64) {
	m.scans++
	m.next = sim.Ticker{At: now, Period: m.cfg.ScanInterval}.Next()
	tick := m.scans - 1
	switch c := m.ahead.take(tick); {
	case m.cfg.ReplayPlan != nil:
		m.scanReplay(tick, now)
	case c != nil:
		m.applyPlanned(&c.plan, &c.cursor, tick, now)
		m.account(c.work[tick-c.first])
	default:
		// No stream, or one drained whose goroutine ended: the scanner is
		// at this tick, and a later RunAhead starts afresh from the next.
		m.ahead = nil
		m.scanInline(now)
	}
}

// scanInline makes the tick in lockstep: the scanner's two halves with the
// downs applied in between, so a battery an abort drained dead is already
// dark when the ups are found.
func (m *Manager) scanInline(now float64) {
	// Radios beacon continuously: charge the scan drain first so nodes that
	// die this tick drop out of the pair set immediately.
	if m.energy != nil {
		for i := range m.hosts {
			m.energy.drain(i, m.cfg.Energy.ScanPerSec*m.cfg.ScanInterval, now)
		}
	}
	freed := m.applyDowns(m.scan.scanDowns(now), now)
	m.applyUps(m.scan.scanUps(now), now)
	m.account(m.scan.work)
	m.finishScan(freed, now)
}

// account adds one applied tick's scan work to the run's counters.
func (m *Manager) account(w tickWork) {
	m.pairsChecked += w.checked
	m.pairsSkipped += w.skipped
	m.wakeups += w.wakeups
	if w.fallback != "" {
		m.fallback = w.fallback
	}
}

// applyDowns tears down the links of pairs, a tick's downs in key order, and
// returns the endpoints their aborts freed. Kicks are deferred until every
// down in the tick is processed (finishScan), so a freed endpoint never
// starts a transfer on a sibling link that is itself about to drop in the
// same tick.
func (m *Manager) applyDowns(pairs []pairKey, now float64) []int {
	freed := m.freedBuf[:0]
	for _, k := range pairs {
		l := m.linkOf(k)
		if l == nil {
			//lint:invariant the applied link set equals the scanner's up record tick by tick, so every down finds its link
			panic(fmt.Sprintf("network: tick %d tears down link %v, which is not up", m.scans-1, k))
		}
		freed = m.linkDown(l, now, freed)
	}
	return freed
}

// applyUps brings up the links of pairs, a tick's ups in emission order.
func (m *Manager) applyUps(pairs []pairKey, now float64) {
	for _, k := range pairs {
		if m.linkOf(k) != nil {
			//lint:invariant the applied link set equals the scanner's up record tick by tick, so no up finds its link live
			panic(fmt.Sprintf("network: tick %d brings up link %v, which is already up", m.scans-1, k))
		}
		m.linkUp(k, now)
	}
}

// finishScan kicks the endpoints freed by this tick's downs, in sorted
// deduplicated order, and parks the scratch for the next tick.
func (m *Manager) finishScan(freed []int, now float64) {
	kickAll(m, freed, now, -1)
	m.freedBuf = freed[:0]
}

func (m *Manager) linkUp(k pairKey, now float64) {
	a, b := m.hosts[k[0]], m.hosts[k[1]]
	l := &link{key: k, a: a, b: b, upAt: now, bw: 1}
	if m.faults != nil {
		// Fixed draw order (jitter, then flap), each from its own
		// substream, so enabling one model never shifts the other.
		l.bw = m.faults.BandwidthScale()
		if d, ok := m.faults.FlapAfter(); ok {
			l.flapTimer = m.eng.After(d, func(flapAt float64) { m.flapLink(k, flapAt) })
		}
	}
	m.links++
	m.adj[k[0]] = insertLink(m.adj[k[0]], l)
	m.adj[k[1]] = insertLink(m.adj[k[1]], l)
	m.contacts++
	m.tracer.Emit(obs.Event{T: now, Type: obs.ContactUp, Node: int(k[0]), Peer: int(k[1])})

	a.OnLinkUp(b, now)
	b.OnLinkUp(a, now)
	m.tryStart(l, now)
}

// linkDown tears the up link l down, aborting any in-flight transfer.
// Endpoints freed by an abort are appended to freed (deduplicated by the
// caller) so their next transfers start only after the caller finishes its
// batch of topology changes; the updated slice is returned.
func (m *Manager) linkDown(l *link, now float64, freed []int) []int {
	k := l.key
	m.links--
	m.adj[k[0]] = removeLink(m.adj[k[0]], l)
	m.adj[k[1]] = removeLink(m.adj[k[1]], l)
	l.flapTimer.Cancel()
	m.ended++
	m.upTime += now - l.upAt
	m.tracer.Emit(obs.Event{T: now, Type: obs.ContactDown, Node: int(k[0]), Peer: int(k[1])})

	l.a.OnLinkDown(l.b, now)
	l.b.OnLinkDown(l.a, now)

	if t := l.active; t != nil {
		t.done.Cancel()
		l.active = nil
		m.busy[t.sender.ID()] = false
		m.busy[t.receiver.ID()] = false
		m.chargeTransfer(t, now-t.startedAt, now)
		m.tracer.Emit(obs.Event{T: now, Type: obs.TransferAbort, Msg: t.offer.S.M.ID,
			Node: t.sender.ID(), Peer: t.receiver.ID()})
		// The endpoints are free again; they may have other live links.
		freed = append(freed, t.sender.ID(), t.receiver.ID())
	}
	return freed
}

// Kick re-evaluates transfer opportunities for host id (used by the world
// when new traffic appears at a node mid-contact).
func (m *Manager) Kick(id int, now float64) { m.kick(id, now) }

// kick offers every idle link of id a transfer, in ascending peer order.
// Nothing tryStart reaches adds or removes links, so the adjacency list is
// stable under the walk.
func (m *Manager) kick(id int, now float64) {
	for _, l := range m.adj[id] {
		m.tryStart(l, now)
	}
}

// tryStart attempts to begin a transfer on l in either direction. The
// starting direction alternates per attempt for fairness.
func (m *Manager) tryStart(l *link, now float64) {
	if l.active != nil || m.busy[l.a.ID()] || m.busy[l.b.ID()] {
		return
	}
	first, second := 0, 1 // 0 = a→b, 1 = b→a
	if l.flip {
		first, second = 1, 0
	}
	if m.startDirection(l, first, now) {
		return
	}
	m.startDirection(l, second, now)
}

func (m *Manager) startDirection(l *link, dir int, now float64) bool {
	sender, receiver := l.a, l.b
	if dir == 1 {
		sender, receiver = l.b, l.a
	}
	for {
		offer, ok := sender.NextOffer(receiver, func(id msg.ID) bool { return l.refusedTo[dir][id] })
		if !ok {
			return false
		}
		if !receiver.PreAccept(offer, now) {
			l.refuse(dir, offer.S.M.ID)
			m.tracer.Emit(obs.Event{T: now, Type: obs.MessageRefused, Msg: offer.S.M.ID,
				Node: sender.ID(), Peer: receiver.ID()})
			continue
		}
		t := &transfer{link: l, sender: sender, receiver: receiver, offer: offer, startedAt: now}
		dur := float64(offer.S.M.Size) / (m.cfg.Bandwidth * l.bw)
		t.done = m.eng.At(now+dur, func(doneAt float64) { m.complete(t, doneAt) })
		l.active = t
		l.flip = !l.flip
		m.busy[sender.ID()] = true
		m.busy[receiver.ID()] = true
		m.tracer.Emit(obs.Event{T: now, Type: obs.TransferStart, Msg: offer.S.M.ID,
			Node: sender.ID(), Peer: receiver.ID(), Size: offer.S.M.Size,
			Kind: offer.Kind.String()})
		return true
	}
}

func (m *Manager) complete(t *transfer, now float64) {
	t.link.active = nil
	m.busy[t.sender.ID()] = false
	m.busy[t.receiver.ID()] = false
	m.chargeTransfer(t, now-t.startedAt, now)

	id := t.offer.S.M.ID
	switch {
	case t.offer.S.M.Expired(now):
		// Died in flight; receiver discards.
		m.tracer.Emit(obs.Event{T: now, Type: obs.TransferAbort, Msg: id,
			Node: t.sender.ID(), Peer: t.receiver.ID()})
	case !t.sender.Buffer().Has(id):
		// The sender's copy vanished mid-flight (evicted by a message it
		// originated, or expired and swept).
		m.tracer.Emit(obs.Event{T: now, Type: obs.TransferAbort, Msg: id,
			Node: t.sender.ID(), Peer: t.receiver.ID()})
	case m.faults.LoseTransfer():
		// Injected radio loss: the bytes crossed the wire but the frame is
		// unusable. The receiver discards; the sender's tokens are intact
		// and the message may be re-offered (the retry costs real contact
		// time, exactly like a real-world retransmission).
		m.tracer.Emit(obs.Event{T: now, Type: obs.TransferLost, Msg: id,
			Node: t.sender.ID(), Peer: t.receiver.ID()})
	default:
		if !routing.CommitTransfer(t.sender, t.receiver, t.offer, now) {
			// Receiver-side late refusal; don't re-offer this contact.
			dir := 0
			if t.sender == t.link.b {
				dir = 1
			}
			t.link.refuse(dir, id)
		}
	}
	m.kick(t.sender.ID(), now)
	m.kick(t.receiver.ID(), now)
}

// chargeTransfer drains both endpoints for elapsed seconds of radio time.
func (m *Manager) chargeTransfer(t *transfer, elapsed, now float64) {
	if m.energy == nil || elapsed <= 0 {
		return
	}
	m.energy.drain(t.sender.ID(), m.cfg.Energy.TxPerSec*elapsed, now)
	m.energy.drain(t.receiver.ID(), m.cfg.Energy.RxPerSec*elapsed, now)
}
