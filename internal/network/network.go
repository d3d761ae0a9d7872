// Package network implements the radio model: grid-accelerated contact
// detection and half-duplex, bandwidth-limited transfers that abort when
// nodes move out of range.
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
	"math"
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
	// (see ContactPlan); it must be empty. The recording is whole once the
	// run reaches its horizon.
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
	// AutoPlanner picks LazyPlanner below kineticFrom nodes and
	// KineticPlanner from there.
	AutoPlanner Planner = iota
	// NaivePlanner re-checks every grid-candidate pair each tick: the
	// reference the others are tested against, and where their load
	// monitors retire to.
	NaivePlanner
	// LazyPlanner parks node pairs (sweep.go).
	LazyPlanner
	// KineticPlanner parks nodes (kinetic.go).
	KineticPlanner
)

// kineticFrom is the fleet size from which AutoPlanner picks the kinetic
// planner over the lazy sweep. PERFORMANCE.md §7's crossover table has the
// measurements: the sweep leads at 100 and 200 nodes and on the 400-node
// densescan case, and loses from 700 nodes at every density measured, as
// its O(n²) pair state outgrows its sharper deadlines.
const kineticFrom = 512

// pairKey identifies an unordered host pair, low id first.
type pairKey [2]int32

func keyOf(a, b int) pairKey {
	if a > b {
		a, b = b, a
	}
	return pairKey{int32(a), int32(b)}
}

// cmpPairKeys orders pair keys lexicographically: the canonical order for
// links collected from the live-link table before any teardown or event
// emission, so the table's internal order never reaches observable output.
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
	// slot is the link's index in Manager.live.
	slot int32
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

// Manager owns the links and transfer scheduling for one simulation run.
type Manager struct {
	eng    *sim.Engine
	cfg    Config
	hosts  []*routing.Host
	models []mobility.Model
	grid   *geo.Grid

	// live holds every up link, in no meaningful order: links join at the
	// end and leave by swap-removal through link.slot. Walks that reach
	// the event stream sort what they collect from it.
	live []*link
	// adj[i] holds node i's up links in key order, which is ascending peer
	// order too: peers below i carry keys (peer, i) and sort first, by
	// peer; peers above i carry keys (i, peer), whose low id i exceeds
	// every earlier one.
	adj  [][]*link
	busy []bool

	tracer obs.Tracer

	positions []geo.Point
	pairBuf   [][2]int32
	contacts  int
	energy    *energyState
	ranges    []float64 // per-node; nil when uniform
	maxRange  float64

	// ended and upTime are the count and total length of finished
	// contacts, summed in teardown order.
	ended  int
	upTime float64

	faults *fault.Injector
	// down marks churn-crashed nodes (nil unless churn is enabled).
	down []bool
	// flapped suppresses re-up of pairs whose contact the flap model cut,
	// until the nodes genuinely separate (nil unless flapping is enabled).
	flapped map[pairKey]bool

	// plan is the motion-bounded scan planner, built on the first scan tick
	// (so contact-trace and replayed runs never allocate one); nil runs the
	// naive scan.
	plan planner
	// fallback names the planner retirement the run took, if any (see
	// FallbackReason).
	fallback string
	// downsBuf and freedBuf are per-tick scratch, reused so a steady-state
	// scan allocates nothing.
	downsBuf []*link
	freedBuf []int
	// scans counts Scan calls; the current tick's index is scans-1.
	scans int64
	// cursor is the next unreplayed entry of cfg.ReplayPlan.ticks.
	cursor int
	// Scan-strategy counters (see ScanStats).
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
		eng:       eng,
		cfg:       cfg,
		hosts:     hosts,
		models:    models,
		ranges:    cfg.Ranges,
		maxRange:  maxRange,
		grid:      geo.NewGrid(cfg.Area, cell, n),
		adj:       make([][]*link, n),
		busy:      make([]bool, n),
		tracer:    cfg.Tracer,
		positions: make([]geo.Point, n),
		energy:    newEnergyState(cfg.Energy, n),
		faults:    cfg.Faults,
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
	return m, nil
}

// FallbackReason names the planner retirement this run took, such as
// "lazy:load-monitor->naive", or returns "" when the planner held. A
// planner retires at most once: its load monitor hands the rest of the run
// to the naive scan. Retirement is byte-identity-preserving; this string
// exists so capacity planning never has to infer the active planner from
// counters.
func (m *Manager) FallbackReason() string { return m.fallback }

// ScanStats reports the scan planner's work counters: distance-predicate
// evaluations performed, ticks of work skipped by parking (pair-ticks under
// the lazy sweep, parked node-ticks under the kinetic planner; always 0
// under the naive scan), and wheel wakeups (pairs for lazy, nodes for
// kinetic). These describe planner work, not simulation outcome — they
// differ across planners while the event trace stays byte-identical.
func (m *Manager) ScanStats() (checked, skipped, wakeups uint64) {
	return m.pairsChecked, m.pairsSkipped, m.wakeups
}

// Replaying reports whether the run's contacts come from Config.ReplayPlan
// instead of a scan; its ScanStats are then zero because no scan ran.
func (m *Manager) Replaying() bool { return m.cfg.ReplayPlan != nil }

// Start schedules the periodic connectivity scan. Call once before
// Engine.Run.
func (m *Manager) Start() {
	m.scheduleChurn()
	m.eng.Every(m.cfg.ScanInterval, m.Scan)
}

// Contacts returns the number of contacts (link-up events) so far.
func (m *Manager) Contacts() int { return m.contacts }

// ActiveLinks returns the number of links currently up.
func (m *Manager) ActiveLinks() int { return len(m.live) }

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

// collectDowns appends every live link whose pair fails the contact
// predicate to the downs scratch and returns it in key order, ready for
// teardown. The predicate reads m.positions, so the caller must have
// sampled both endpoints of every live link for this tick.
func (m *Manager) collectDowns() []*link {
	downs := m.downsBuf[:0]
	for _, l := range m.live {
		if !m.pairInContact(int(l.key[0]), int(l.key[1])) {
			downs = append(downs, l)
		}
	}
	slices.SortFunc(downs, func(x, y *link) int { return cmpPairKeys(x.key, y.key) })
	m.downsBuf = downs
	if m.cfg.RecordPlan != nil {
		m.cfg.RecordPlan.recordDowns(downs)
	}
	return downs
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

// Scan samples positions, diffs the in-range pair set against the active
// links, and emits link-up/down transitions. Exported for tests; normally
// driven by Start. Every planner emits a byte-identical event stream, and
// so does the replay of a plan one of them recorded.
func (m *Manager) Scan(now float64) {
	m.scans++
	if m.cfg.ReplayPlan != nil {
		m.scanReplay(now)
		return
	}
	if m.scans == 1 {
		m.plan = m.newPlanner()
	}
	// Radios beacon continuously: charge the scan drain first so nodes that
	// die this tick drop out of the pair set immediately.
	if m.energy != nil {
		for i := range m.hosts {
			m.energy.drain(i, m.cfg.Energy.ScanPerSec*m.cfg.ScanInterval, now)
		}
	}
	if m.plan != nil {
		m.scanParked(now)
		return
	}
	m.scanNaive(now)
}

// plannerFor resolves p for a fleet of n nodes: AutoPlanner becomes the
// lazy sweep below kineticFrom nodes and the kinetic planner from there.
func plannerFor(p Planner, n int) Planner {
	switch {
	case p != AutoPlanner:
		return p
	case n < kineticFrom:
		return LazyPlanner
	}
	return KineticPlanner
}

// newPlanner builds the run's planner; nil is the naive scan.
func (m *Manager) newPlanner() planner {
	switch plannerFor(m.cfg.Planner, len(m.hosts)) {
	case LazyPlanner:
		return newSweep(m)
	case KineticPlanner:
		return newKinetic(m)
	}
	return nil
}

func (m *Manager) scanNaive(now float64) {
	for i, model := range m.models {
		m.positions[i] = model.Pos(now)
	}

	// Downs first (frees endpoints), in key order: the teardown order must
	// never inherit the live table's order, or the abort/kick sequence —
	// and every event it emits — would depend on which links happened to
	// be swap-removed earlier. The in-contact predicate is recomputed per
	// link instead of consulting a freshly built pair set: pairInContact
	// true implies membership in the grid's pair list (the grid finds
	// every pair within maxRange ≥ the pair range), so the diff is exact
	// without a per-tick set.
	downs := m.collectDowns()
	// Kicks are deferred until every down in this tick is processed, so a
	// freed endpoint never starts a transfer on a sibling link that is
	// itself about to drop in the same tick.
	freed := m.freedBuf[:0]
	for _, l := range downs {
		freed = m.linkDown(l, now, freed)
	}
	pairs := m.gridUps(now)
	// Separated pairs may flap again on their next genuine contact.
	for k := range m.flapped {
		if !m.pairInContact(int(k[0]), int(k[1])) {
			delete(m.flapped, k)
		}
	}
	m.pairsChecked += uint64(len(m.live)) + uint64(pairs) + uint64(len(m.flapped))
	m.finishScan(freed, now)
}

// gridUps rebuilds the grid from this tick's positions, which the caller
// must have sampled for every node, and brings up every in-contact pair in
// the grid's enumeration order, skipping existing links and flap-suppressed
// pairs (a flapped contact stays down until the nodes genuinely separate).
// That order is the naive scan's, which every planner's multi-up tick
// reproduces through this method. It returns the number of grid pairs
// checked.
func (m *Manager) gridUps(now float64) int {
	m.grid.Update(m.positions)
	m.pairBuf = m.grid.Pairs(m.maxRange, m.pairBuf[:0])
	for _, p := range m.pairBuf {
		if !m.pairInContact(int(p[0]), int(p[1])) {
			continue
		}
		k := pairKey{p[0], p[1]}
		if m.flapped[k] {
			continue
		}
		if m.linkOf(k) == nil {
			m.linkUp(k, now)
		}
	}
	return len(m.pairBuf)
}

// finishScan kicks the endpoints freed by this tick's downs, in sorted
// deduplicated order, and parks the scratch slices for the next tick.
func (m *Manager) finishScan(freed []int, now float64) {
	kickAll(m, freed, now, -1)
	clear(m.downsBuf) // release the torn-down links
	m.downsBuf = m.downsBuf[:0]
	m.freedBuf = freed[:0]
	if m.cfg.RecordPlan != nil {
		m.cfg.RecordPlan.closeTick(m.scans - 1)
	}
}

// pairInContact is the scan predicate: both radios alive, neither node
// churn-crashed, and the distance within the pair's effective range (the
// smaller of the two radios; both must reach). Callers must have sampled
// both positions for the current tick.
func (m *Manager) pairInContact(a, b int) bool {
	if !m.energy.alive(a) || !m.energy.alive(b) {
		return false
	}
	if m.isDown(a) || m.isDown(b) {
		return false
	}
	r := m.pairRange(a, b)
	return m.positions[a].Dist2(m.positions[b]) <= r*r
}

// pairRange returns the effective radio range of the pair: a link needs
// both radios to reach.
func (m *Manager) pairRange(a, b int) float64 {
	if m.ranges == nil {
		return m.cfg.Range
	}
	return math.Min(m.ranges[a], m.ranges[b])
}

func (m *Manager) linkUp(k pairKey, now float64) {
	a, b := m.hosts[k[0]], m.hosts[k[1]]
	l := &link{key: k, a: a, b: b, upAt: now, bw: 1, slot: int32(len(m.live))}
	if m.faults != nil {
		// Fixed draw order (jitter, then flap), each from its own
		// substream, so enabling one model never shifts the other.
		l.bw = m.faults.BandwidthScale()
		if d, ok := m.faults.FlapAfter(); ok {
			l.flapTimer = m.eng.After(d, func(flapAt float64) { m.flapLink(k, flapAt) })
		}
	}
	m.live = append(m.live, l)
	m.adj[k[0]] = insertLink(m.adj[k[0]], l)
	m.adj[k[1]] = insertLink(m.adj[k[1]], l)
	if m.plan != nil {
		m.plan.onLinkUp(k)
	}
	if m.cfg.RecordPlan != nil {
		m.cfg.RecordPlan.recordUp(k)
	}
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
	last := m.live[len(m.live)-1]
	m.live[l.slot] = last
	last.slot = l.slot
	m.live[len(m.live)-1] = nil
	m.live = m.live[:len(m.live)-1]
	m.adj[k[0]] = removeLink(m.adj[k[0]], l)
	m.adj[k[1]] = removeLink(m.adj[k[1]], l)
	l.flapTimer.Cancel()
	m.ended++
	m.upTime += now - l.upAt
	if m.plan != nil {
		// Every teardown — scan separation, flap, churn crash — wakes what
		// it touches; the next tick re-parks it if it is genuinely far.
		// This conservative wake is what keeps fault interactions exact.
		m.plan.onLinkDown(k)
	}
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
