package network

import (
	"testing"

	"sdsrp/internal/fault"
	"sdsrp/internal/msg"
	"sdsrp/internal/rng"
)

// checkLinkTable asserts the link table's invariants against want, the set
// of pairs the test believes are up: the count matches, every link sits in
// both endpoints' lists, each list is strictly sorted by peer, linkOf agrees
// with want, and churn-crashed nodes hold no links.
func checkLinkTable(t *testing.T, step int, m *Manager, want map[pairKey]bool) {
	t.Helper()
	if m.ActiveLinks() != len(want) {
		t.Fatalf("step %d: ActiveLinks %d, want %d", step, m.ActiveLinks(), len(want))
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
			if !want[l.key] || l.key[0] >= l.key[1] {
				t.Fatalf("step %d: node %d lists unexpected link %v", step, i, l.key)
			}
			if l.a.ID() != int(l.key[0]) || l.b.ID() != int(l.key[1]) {
				t.Fatalf("step %d: link %v joins hosts %d-%d", step, l.key, l.a.ID(), l.b.ID())
			}
		}
	}
	if entries != 2*len(want) {
		t.Fatalf("step %d: %d adjacency entries for %d up links (asymmetric)", step, entries, len(want))
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

// anyLink returns an up link drawn by s, or nil when none is up.
func anyLink(m *Manager, s *rng.Stream) *link {
	var all []*link
	for i, ls := range m.adj {
		for _, l := range ls {
			if int(l.key[0]) == i {
				all = append(all, l)
			}
		}
	}
	if len(all) == 0 {
		return nil
	}
	return all[s.IntN(len(all))]
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
				l := anyLink(m, s)
				if l == nil {
					continue
				}
				delete(want, l.key)
				kickAll(m, m.linkDown(l, now, nil), now, -1)
			case op < 8: // flap
				l := anyLink(m, s)
				if l == nil {
					continue
				}
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
