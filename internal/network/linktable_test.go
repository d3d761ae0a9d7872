package network

import (
	"testing"

	"sdsrp/internal/fault"
	"sdsrp/internal/msg"
	"sdsrp/internal/rng"
)

// checkLinkTable asserts the link table's invariants against want, the set
// of pairs the test believes are up: live and the per-node lists hold the
// same links, every link sits in both endpoints' lists, each list is
// strictly sorted by peer, slots index live, linkOf agrees with want, and
// churn-crashed nodes hold no links.
func checkLinkTable(t *testing.T, step int, m *Manager, want map[pairKey]bool) {
	t.Helper()
	if m.ActiveLinks() != len(want) || len(m.live) != len(want) {
		t.Fatalf("step %d: ActiveLinks %d, live %d, want %d", step, m.ActiveLinks(), len(m.live), len(want))
	}
	for s, l := range m.live {
		if int(l.slot) != s {
			t.Fatalf("step %d: link %v at live[%d] has slot %d", step, l.key, s, l.slot)
		}
		if !want[l.key] || l.key[0] >= l.key[1] {
			t.Fatalf("step %d: live holds unexpected link %v", step, l.key)
		}
		if l.a.ID() != int(l.key[0]) || l.b.ID() != int(l.key[1]) {
			t.Fatalf("step %d: link %v joins hosts %d-%d", step, l.key, l.a.ID(), l.b.ID())
		}
	}
	entries := 0
	for i, ls := range m.adj {
		if m.isDown(i) && len(ls) > 0 {
			t.Fatalf("step %d: crashed node %d still has %d links", step, i, len(ls))
		}
		prev := int32(-1)
		for _, l := range ls {
			entries++
			var peer int32
			switch int32(i) {
			case l.key[0]:
				peer = l.key[1]
			case l.key[1]:
				peer = l.key[0]
			default:
				t.Fatalf("step %d: node %d lists link %v it is not an endpoint of", step, i, l.key)
			}
			if peer <= prev {
				t.Fatalf("step %d: node %d's links not sorted by peer: %d after %d", step, i, peer, prev)
			}
			prev = peer
			if int(l.slot) >= len(m.live) || m.live[l.slot] != l {
				t.Fatalf("step %d: node %d lists link %v that is not live", step, i, l.key)
			}
		}
	}
	if entries != 2*len(m.live) {
		t.Fatalf("step %d: %d adjacency entries for %d live links (asymmetric)", step, entries, len(m.live))
	}
	n := len(m.adj)
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			k := keyOf(a, b)
			if got := m.linkOf(k) != nil; got != want[k] {
				t.Fatalf("step %d: linkOf(%v) up=%v, want %v", step, k, got, want[k])
			}
		}
	}
}

// TestLinkTableInvariants drives random link-ups, scan-style teardowns,
// flaps and churn crashes and reboots straight into the Manager, checking
// the link table after every step. Messages in flight make teardowns abort
// transfers and kick the freed endpoints, as they do in a run.
func TestLinkTableInvariants(t *testing.T) {
	const n = 9
	for seed := uint64(1); seed <= 12; seed++ {
		r := newFaultRig(n, 1e6, fault.Config{
			LinkFlapMeanUp: 1e9,
			Churn:          fault.Churn{MeanUp: 1e9, MeanDown: 1},
		}, nil)
		m := r.mgr
		for i := 0; i < n; i++ {
			r.hosts[i].Originate(r.msg(msg.ID(i+1), i, (i+1)%n, 4, 500), 0)
		}
		s := rng.New(seed)
		want := map[pairKey]bool{}
		for step := 0; step < 400; step++ {
			now := float64(step)
			switch op := s.IntN(10); {
			case op < 5: // up
				a, b := s.IntN(n), s.IntN(n)
				k := keyOf(a, b)
				if a == b || want[k] || m.isDown(a) || m.isDown(b) {
					continue
				}
				m.linkUp(k, now)
				want[k] = true
			case op < 7: // scan separation
				if len(m.live) == 0 {
					continue
				}
				l := m.live[s.IntN(len(m.live))]
				delete(want, l.key)
				kickAll(m, m.linkDown(l, now, nil), now, -1)
			case op < 8: // flap
				if len(m.live) == 0 {
					continue
				}
				l := m.live[s.IntN(len(m.live))]
				delete(want, l.key)
				m.flapLink(l.key, now)
			case op < 9: // crash
				id := s.IntN(n)
				if m.isDown(id) {
					continue
				}
				for k := range want {
					if int(k[0]) == id || int(k[1]) == id {
						delete(want, k)
					}
				}
				m.nodeDown(id, now)
			default: // reboot
				id := s.IntN(n)
				if !m.isDown(id) {
					continue
				}
				m.nodeUp(id, now)
			}
			checkLinkTable(t, step, m, want)
		}
	}
}

// TestKickAllocatesNothing pins kick's walk over the sorted adjacency list:
// offering transfers on a node with several links allocates nothing when
// no transfer can start.
func TestKickAllocatesNothing(t *testing.T) {
	r := newRig(4, 10000)
	m := r.mgr
	for _, k := range []pairKey{{0, 1}, {0, 2}, {0, 3}} {
		m.linkUp(k, 0)
	}
	if len(m.adj[0]) != 3 {
		t.Fatalf("node 0 has %d links, want 3", len(m.adj[0]))
	}
	if allocs := testing.AllocsPerRun(100, func() { m.kick(0, 1) }); allocs != 0 {
		t.Fatalf("kick allocated %.1f times per call, want 0", allocs)
	}
}
