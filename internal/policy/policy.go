// Package policy implements buffer-management strategies: the scheduling
// order (which message to transmit first during a contact) and the drop
// order (which message to evict on overflow).
//
// The paper compares four strategies on top of binary Spray-and-Wait:
//
//   - FIFO ("Spray and Wait"): send oldest-received first, evict
//     oldest-received first; newcomers are always accepted.
//   - SW-O ("Spray and Wait-O"): priority = remaining TTL / initial TTL.
//   - SW-C ("Spray and Wait-C"): priority = current copies / initial copies.
//   - SDSRP: priority = Eq. 10 utility from internal/core.
//
// Additional strategies (OracleUtility, SDSRP-Taylor) support the ablations
// listed in DESIGN.md §8; Knapsack and DropLargest rank by message size.
//
// # Performance contract
//
// Ordering happens on every contact (send scheduling) and on every buffer
// overflow (eviction planning), which makes it a simulator hot path: see
// PERFORMANCE.md. Hot callers hold an Orderer — a reusable scratch space for
// the (message, score) ranking — so steady-state ordering is allocation-free.
// Scores are always computed in input order before sorting, and ties always
// break on ascending message ID, so the reusable path ranks byte-identically
// to the throwaway SendOrder/PlanEviction convenience functions, and a
// registered policy that draws from its stream draws in the same order.
//
//lint:shard-safe the write-once policy registry is the single annotated package state; runtime state lives in per-run Orderer scratch
package policy

import (
	"sort"

	"sdsrp/internal/buffer"
	"sdsrp/internal/msg"
)

// View exposes the per-node state a policy may consult when scoring a
// message. It is implemented by the routing host.
type View interface {
	// Now is the current simulation time.
	Now() float64
	// Nodes is N, the network size.
	Nodes() int
	// Lambda is the node's current intermeeting-rate estimate (may be 0
	// early in a run).
	Lambda() float64
	// EIMin is the estimated minimum-intermeeting expectation E(I_min).
	EIMin() float64
	// SeenEstimate returns m̂_i for the copy (SDSRP's Eq. 15 estimator).
	SeenEstimate(s *msg.Stored) float64
	// LiveEstimate returns n̂_i for the copy (Eq. 14).
	LiveEstimate(s *msg.Stored) float64
	// TrueSeen returns the simulator's ground-truth m_i, for oracle
	// ablation policies. The host reads it from a ledger on the event
	// stream, which world.Build attaches only when the policy's name starts
	// with "Oracle" (OracleUtility runs); every other policy, registered
	// ones included, gets SeenEstimate.
	TrueSeen(s *msg.Stored) float64
	// TrueLive returns the ground-truth n_i under the same rule, and
	// LiveEstimate without the ledger.
	TrueLive(s *msg.Stored) float64
}

// Policy scores messages. Both scores are "higher is better": the highest
// SendScore is transmitted first; the lowest DropScore is evicted first.
type Policy interface {
	Name() string
	SendScore(v View, s *msg.Stored) float64
	DropScore(v View, s *msg.Stored) float64
}

// Orderer computes send and eviction orders using reusable scratch buffers,
// so a host's per-contact scheduling is allocation-free at steady state.
// Slices returned by its methods alias the scratch space and are valid only
// until the next call on the same Orderer; each host owns one and uses the
// results within a single event. The zero value is ready to use. Not safe
// for concurrent use.
type Orderer struct {
	send  ranking
	evict ranking
}

// ranking is a sortable (message, score) column pair. Holding it as an
// addressable field lets sort.Stable take an interface value without
// allocating a closure per call.
type ranking struct {
	items  []*msg.Stored
	scores []float64
	// desc selects descending score order (send ranking); ascending is the
	// eviction ranking. Ties always break on ascending message ID.
	desc bool
}

func (r *ranking) Len() int { return len(r.items) }

func (r *ranking) Less(i, j int) bool {
	si, sj := r.scores[i], r.scores[j]
	//lint:ignore float-eq bitwise tie-break: only exactly equal scores fall through to the ID order
	if si != sj {
		if r.desc {
			return si > sj
		}
		return si < sj
	}
	return r.items[i].M.ID < r.items[j].M.ID
}

func (r *ranking) Swap(i, j int) {
	r.items[i], r.items[j] = r.items[j], r.items[i]
	r.scores[i], r.scores[j] = r.scores[j], r.scores[i]
}

// rank loads the items and their scores (computed in input order, which
// matters for registered policies that draw from their stream) and sorts
// them.
//
// Performance contract: copies into reused scratch slices in place and
// sorts through the pointer receiver (no interface boxing of values);
// warm, rank allocates nothing.
func (r *ranking) rank(p Policy, v View, items []*msg.Stored, score func(Policy, View, *msg.Stored) float64) {
	r.items = append(r.items[:0], items...)
	r.scores = r.scores[:0]
	for _, s := range items {
		r.scores = append(r.scores, score(p, v, s))
	}
	sort.Stable(r)
}

func sendScore(p Policy, v View, s *msg.Stored) float64 { return p.SendScore(v, s) }
func dropScore(p Policy, v View, s *msg.Stored) float64 { return p.DropScore(v, s) }

// SendOrder returns the buffered copies sorted into transmission order
// (first element = next to send). The sort is deterministic: ties break on
// message ID. The input slice is not modified; the returned slice is
// scratch space valid until the next call.
//
// Performance contract: ranks into the Orderer's reused scratch space;
// warm, SendOrder allocates nothing.
func (o *Orderer) SendOrder(p Policy, v View, items []*msg.Stored) []*msg.Stored {
	o.send.desc = true
	o.send.rank(p, v, items, sendScore)
	return o.send.items
}

// SendOrder is the convenience form using a throwaway Orderer. Hot paths
// hold an Orderer and call its method instead.
func SendOrder(p Policy, v View, items []*msg.Stored) []*msg.Stored {
	var o Orderer
	return o.SendOrder(p, v, items)
}

// PlanEviction decides whether incoming can be stored in buf, evicting
// lower-scored victims if needed. It mirrors Algorithm 1 of the paper
// generalized to heterogeneous sizes: repeatedly compare the lowest
// DropScore among the buffered messages against the newcomer's; if the
// newcomer is the weakest, reject it; otherwise evict the weakest and
// retry. Victims are returned in eviction order, scores[i] being victims[i]'s
// DropScore; accept reports whether incoming fits after those evictions.
// buf is not modified. Whenever it rejects incoming, inScore is the
// newcomer's DropScore: callers report these scores instead of scoring
// again, so a registered policy that draws from its stream sees the same
// calls whether or not anyone records them. A newcomer larger than the
// whole buffer is scored too, for the same reason.
//
// Performance contract: ranks into the Orderer's reused scratch space;
// warm, PlanEviction allocates nothing.
func (o *Orderer) PlanEviction(p Policy, v View, buf *buffer.Buffer, incoming *msg.Stored) (victims []*msg.Stored, scores []float64, inScore float64, accept bool) {
	if incoming.M.Size > buf.Capacity() {
		return nil, nil, p.DropScore(v, incoming), false
	}
	free := buf.Free()
	if incoming.M.Size <= free {
		return nil, nil, 0, true
	}
	// Ascending score: weakest first; ties break on ID for determinism.
	o.evict.desc = false
	o.evict.rank(p, v, buf.Items(), dropScore)
	inScore = p.DropScore(v, incoming)
	n := 0
	for i, s := range o.evict.items {
		if free >= incoming.M.Size {
			break
		}
		if !weakerThanIncoming(o.evict.scores[i], inScore, s.M.ID, incoming.M.ID) {
			// The weakest survivor outranks the newcomer: reject.
			return nil, nil, inScore, false
		}
		n++
		free += s.M.Size
	}
	return o.evict.items[:n], o.evict.scores[:n], inScore, free >= incoming.M.Size
}

// PlanEviction is the convenience form using a throwaway Orderer.
func PlanEviction(p Policy, v View, buf *buffer.Buffer, incoming *msg.Stored) ([]*msg.Stored, bool) {
	var o Orderer
	victims, _, _, ok := o.PlanEviction(p, v, buf, incoming)
	return victims, ok
}

// weakerThanIncoming applies the same ordering as the eviction sort, so the
// newcomer takes its place in the ranking rather than winning ties.
func weakerThanIncoming(score, inScore float64, id, inID msg.ID) bool {
	//lint:ignore float-eq bitwise tie-break: must rank exactly like the eviction sort above or Algorithm 1 loops
	if score != inScore {
		return score < inScore
	}
	return id < inID
}
