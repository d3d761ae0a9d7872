// Package network implements the radio model: grid-accelerated contact
// detection and half-duplex, bandwidth-limited transfers that abort when
// nodes move out of range. It has two parts: the scanner (scan.go), which
// turns motion into link transitions, and the link layer (this file), which
// applies them, one tick at a time through applyTick, and runs the transfers
// and link faults on top. Worlds whose contacts depend on motion alone (no
// battery or churn) run the scanner ahead of the engine on a goroutine of
// its own (ahead.go).
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
	// RecordPlan, when set, receives every link transition the scan makes
	// (see ContactPlan); it must be empty. The link layer writes each tick
	// as it applies it, and the recording is whole once the run reaches its
	// horizon and Run has returned.
	RecordPlan *ContactPlan
	// ReplayPlan, when set, replaces the scan: each tick applies the plan's
	// recorded transitions instead, and no scanner is built. The plan must
	// come from a whole recording of a run with the same motion, node
	// count, ranges, scan interval and horizon.
	ReplayPlan *ContactPlan
}

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
	// flapped holds the pairs a link flap cut whose nodes have not left
	// range since: the scan still holds them up, and applyTick keeps them
	// down until it reports them down (nil unless link flapping is enabled,
	// and in a scheduled run, whose next recorded contact re-ups the pair).
	flapped map[pairKey]bool

	// scan is the scanner; nil in replaying and contact-trace runs, which
	// build none.
	scan *scanner
	// ahead streams the scanner's ticks from its own goroutine while a
	// run-ahead world runs (nil otherwise, and once a run has applied every
	// tick of the stream).
	ahead *runAhead
	// next is the scan ticker's next firing, where a fresh stream starts.
	next sim.Ticker
	// freedBuf is per-tick scratch, reused so a steady-state scan tick
	// allocates nothing.
	freedBuf []int
	// scans counts Scan calls; the current tick's index is scans-1.
	scans int64
	// cursor is the next unreplayed entry of cfg.ReplayPlan.ticks.
	cursor int
	// pairsChecked counts the pairs the applied ticks checked (see
	// ScanStats).
	pairsChecked uint64
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
	if m.faults.FlapEnabled() {
		m.flapped = make(map[pairKey]bool)
	}
	if err := m.checkPlans(); err != nil {
		return nil, err
	}
	if cfg.RecordPlan != nil {
		cfg.RecordPlan.nodes = n
	}
	if cfg.ReplayPlan == nil {
		m.scan = newScanner(m, models, maxRange)
	}
	return m, nil
}

// coupled reports whether the scan's contacts can depend on more than
// motion: the battery model (transfers drain radios dead) or churn (crashes
// darken radios and cut links outside the scan). Such a world scans in
// lockstep and shares no contact plan. Link flaps act on the links alone,
// so a flapping world is not coupled.
func (m *Manager) coupled() bool {
	return m.energy != nil || m.faults.ChurnEnabled()
}

// ScanStats reports the scan's work: the distance-predicate evaluations of
// the ticks applied so far. It describes how the scan did its work, not
// the simulation's outcome.
func (m *Manager) ScanStats() (checked uint64) {
	return m.pairsChecked
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
// from the replayed plan, the run-ahead stream or an inline scan, and
// applies them. Exported for tests; normally driven by Start. The scan emits
// the reference scan's event stream byte for byte, and so does the replay
// of a plan it recorded, wherever the scanner ran.
func (m *Manager) Scan(now float64) {
	m.scans++
	m.next = sim.Ticker{At: now, Period: m.cfg.ScanInterval}.Next()
	tick := m.scans - 1
	switch c := m.ahead.take(tick); {
	case m.cfg.ReplayPlan != nil:
		p := m.cfg.ReplayPlan
		if tick >= p.horizon {
			//lint:invariant plans are shared only between runs of equal Duration and ScanInterval, so a replaying run's scan ticks end where the recording run's did
			panic(fmt.Sprintf("network: contact plan replayed past its horizon (tick %d of %d)", tick, p.horizon))
		}
		downs, ups := p.at(&m.cursor, tick)
		m.applyTick(tick, downs, ups, now)
	case c != nil:
		downs, ups := c.plan.at(&c.cursor, tick)
		m.applyTick(tick, downs, ups, now)
		m.pairsChecked += c.checked[tick-c.first]
	default:
		// No stream, or one drained whose goroutine ended: the scanner is
		// at this tick, and a later RunAhead starts afresh from the next.
		m.ahead = nil
		// Radios beacon continuously: charge the scan drain first so nodes
		// that die this tick drop out of the pair set immediately.
		if m.energy != nil {
			for i := range m.hosts {
				m.energy.drain(i, m.cfg.Energy.ScanPerSec*m.cfg.ScanInterval, now)
			}
		}
		downs, ups := m.scan.tick(now)
		m.applyTick(tick, downs, ups, now)
		m.pairsChecked += m.scan.checked()
	}
}

// applyTick applies scan tick tick's transitions at time now, wherever they
// came from: it records them when Config.RecordPlan is set, tears down the
// downs in key order, brings up the ups in emission order, then kicks the
// endpoints the downs' aborts freed. Kicks wait until the whole tick is
// applied, so a freed endpoint never starts a transfer on a sibling link
// that is itself about to drop in the same tick.
func (m *Manager) applyTick(tick int64, downs, ups []pairKey, now float64) {
	if p := m.cfg.RecordPlan; p != nil {
		p.add(tick, downs, ups)
	}
	freed := m.freedBuf[:0]
	for _, k := range downs {
		switch l := m.linkOf(k); {
		case l != nil:
			freed = m.linkDown(l, now, freed)
		case m.flapped[k]:
			// A flap cut the link already; the nodes have now separated,
			// so the pair may come up again.
			delete(m.flapped, k)
		default:
			//lint:invariant the applied link set equals the scanner's up record tick by tick, less flap-cut pairs, so every down finds its link or its flap
			panic(fmt.Sprintf("network: tick %d tears down link %v, which is not up", tick, k))
		}
	}
	for _, k := range ups {
		switch {
		case !m.energy.alive(int(k[0])) || !m.energy.alive(int(k[1])):
			// An abort among this tick's downs drained a radio the scan saw
			// on: the pair is not in contact after all (battery worlds scan
			// inline, so the scanner is at this tick).
			m.scan.forget(k)
		case m.linkOf(k) != nil:
			//lint:invariant the applied link set equals the scanner's up record tick by tick, so no up finds its link live
			panic(fmt.Sprintf("network: tick %d brings up link %v, which is already up", tick, k))
		default:
			m.linkUp(k, now)
		}
	}
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
