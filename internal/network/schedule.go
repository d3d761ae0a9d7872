package network

import (
	"fmt"
	"math"
	"sort"

	"sdsrp/internal/trace"
)

// ValidateContacts checks a recorded contact list against a population of n
// nodes: self-contacts, out-of-range ids, non-finite times, and empty or
// negative intervals are rejected. Callers that assemble contacts from
// external traces should validate at build time so replay cannot fail.
func ValidateContacts(contacts []trace.Contact, n int) error {
	for _, c := range contacts {
		if c.A == c.B {
			return fmt.Errorf("network: contact with itself: node %d", c.A)
		}
		if c.A < 0 || c.A >= n || c.B < 0 || c.B >= n {
			return fmt.Errorf("network: contact %d-%d out of range (N=%d)", c.A, c.B, n)
		}
		if !(c.Start >= 0 && c.End > c.Start) || math.IsInf(c.End, 1) { // NaN fails both comparisons
			return fmt.Errorf("network: contact %d-%d has bad interval [%v,%v]", c.A, c.B, c.Start, c.End)
		}
	}
	return nil
}

// StartScheduled drives the manager from a recorded contact list instead of
// the mobility scanner: link-up/down events fire at the listed times and
// the transfer engine runs unchanged on top. Call instead of Start.
//
// Contacts failing ValidateContacts are rejected. Overlapping contacts for
// the same pair are merged implicitly (a second "up" while the link is up
// is ignored; the link stays up until the last scheduled down). The energy
// model's scan drain does not apply (there is no radio discovery to model);
// transfer drain still does. A churn-crashed node misses the remainder of
// any recorded contact that starts or is in progress during its outage.
func (m *Manager) StartScheduled(contacts []trace.Contact) error {
	if err := ValidateContacts(contacts, len(m.hosts)); err != nil {
		return err
	}
	if m.cfg.RecordPlan != nil || m.cfg.ReplayPlan != nil {
		return fmt.Errorf("network: contact plans record and replay scans, and a scheduled run has none")
	}
	// A scheduled run never scans, and its next recorded contact re-ups a
	// flapped pair.
	m.scan, m.flapped = nil, nil
	m.scheduleChurn()
	sorted := append([]trace.Contact(nil), contacts...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].Start < sorted[j].Start })

	// Track how many overlapping recorded contacts keep each pair up, so
	// merged intervals behave like one long contact. The map is only ever
	// indexed by key, never ranged: link transitions fire in the engine's
	// (time, seq) order fixed by the sorted schedule above, so no map
	// iteration order can reach the event stream.
	depth := make(map[pairKey]int)
	for _, c := range sorted {
		c := c
		k := keyOf(c.A, c.B)
		m.eng.At(c.Start, func(now float64) {
			depth[k]++
			if depth[k] == 1 && !m.isDown(int(k[0])) && !m.isDown(int(k[1])) {
				if m.linkOf(k) == nil {
					m.linkUp(k, now)
				}
			}
		})
		m.eng.At(c.End, func(now float64) {
			depth[k]--
			if depth[k] <= 0 {
				if l := m.linkOf(k); l != nil {
					for _, id := range m.linkDown(l, now, nil) {
						m.kick(id, now)
					}
				}
			}
		})
	}
	return nil
}
