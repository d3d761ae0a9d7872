package network

import (
	"sort"

	"sdsrp/internal/obs"
)

// This file actuates the fault layer's link-flap and node-churn models on
// the radio state the Manager owns. The decisions themselves (whether, when,
// how long) are drawn by internal/fault from its dedicated rng substreams;
// here they only turn into link teardowns and scheduled engine events, so
// the no-fault path costs a nil check per call site.

// flapLink force-drops a live link when its flap timer fires. In a scanned
// or replayed run the pair stays down until the scan reports it out of
// range (Manager.flapped); in a scheduled run the next recorded contact
// re-ups it.
func (m *Manager) flapLink(k pairKey, now float64) {
	l := m.linkOf(k)
	if l == nil {
		return // timer should have been canceled with the link; be safe
	}
	m.tracer.Emit(obs.Event{T: now, Type: obs.LinkFlap, Node: int(k[0]), Peer: int(k[1])})
	if m.flapped != nil {
		m.flapped[k] = true
	}
	freed := m.linkDown(l, now, nil)
	kickAll(m, freed, now, -1)
}

// scheduleChurn arms the first crash clock of every churn-eligible node.
// Called once from Start / StartScheduled; each node then cycles
// crash → reboot → crash through engine events.
func (m *Manager) scheduleChurn() {
	if !m.faults.ChurnEnabled() {
		return
	}
	// Node order fixes the draw order of the initial uptimes.
	for id := range m.hosts {
		if m.faults.Churns(id) {
			m.scheduleCrash(id, m.faults.NextUptime())
		}
	}
}

func (m *Manager) scheduleCrash(id int, after float64) {
	m.eng.After(after, func(now float64) { m.nodeDown(id, now) })
}

// nodeDown crashes host id: every live link is torn down (aborting
// in-flight transfers), the node stops appearing in scans and scheduled
// link-ups, and a reboot is scheduled after a drawn outage.
func (m *Manager) nodeDown(id int, now float64) {
	m.down[id] = true
	// Tear the links down in key order, which is the adjacency list's
	// own order; each teardown removes the list's head. The scanner forgets
	// each pair first, as it forgets its own downs (churn worlds scan in
	// lockstep, on this goroutine).
	var freed []int
	for len(m.adj[id]) > 0 {
		l := m.adj[id][0]
		if m.scan != nil {
			m.scan.forget(l.key)
		}
		freed = m.linkDown(l, now, freed)
	}
	m.tracer.Emit(obs.Event{T: now, Type: obs.NodeDown, Node: id})
	// Surviving peers may have other live links; the crashed node must not
	// start anything.
	kickAll(m, freed, now, id)
	m.eng.After(m.faults.NextOutage(), func(upAt float64) { m.nodeUp(id, upAt) })
}

// nodeUp reboots host id. With WipeOnReboot the host loses its buffer and
// dropped-list state (a cold restart); either way the node rejoins the
// network at the next scan or scheduled contact, and its next crash is
// armed.
func (m *Manager) nodeUp(id int, now float64) {
	m.down[id] = false
	if m.faults.WipeOnReboot() {
		m.hosts[id].WipeState(now)
	}
	m.tracer.Emit(obs.Event{T: now, Type: obs.NodeUp, Node: id})
	m.scheduleCrash(id, m.faults.NextUptime())
}

// isDown reports whether churn currently keeps host id dark.
func (m *Manager) isDown(id int) bool { return m.down != nil && m.down[id] }

// kickAll kicks the freed endpoints in deterministic order, skipping
// duplicates and the excluded id (-1 for none).
func kickAll(m *Manager, freed []int, now float64, exclude int) {
	if len(freed) == 0 {
		return
	}
	sort.Ints(freed)
	prev := -1
	for _, id := range freed {
		if id != prev && id != exclude {
			m.kick(id, now)
		}
		prev = id
	}
}
