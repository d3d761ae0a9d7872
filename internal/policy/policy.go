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
// Offer selection and eviction run on every transfer start and buffer
// overflow: see PERFORMANCE.md. A host picks each offer in one pass,
// calling SendScore once per offerable copy (unexpired, not refused on
// this contact, Eligible toward the peer) and keeping the copy that
// SendsBefore the rest. Eviction ranks into an Orderer's reusable scratch,
// allocation-free once warm. Scores are computed in buffer order, so a
// registered policy that draws from its stream draws reproducibly, and
// ties break on ascending message ID.
//
//lint:shard-safe the write-once policy registry is the single annotated package state; runtime state lives in per-run Orderer scratch
package policy

import (
	"math"
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

// Orderer plans evictions using reusable scratch buffers, so a host's
// overflow handling is allocation-free at steady state. Slices returned by
// PlanEviction alias the scratch space and are valid only until the next
// call on the same Orderer. Callers may share one Orderer under a
// one-caller-at-a-time rule: each is done with the returned slices before
// any PlanEviction call can follow, and no two calls run concurrently. The
// hosts of one world share one this way (routing.Env): one goroutine runs
// the world's engine, and every host method that plans an eviction uses
// its result before it returns. The zero value is ready to use.
type Orderer struct {
	evict ranking
}

// ranking is a sortable (message, score) column pair in ascending score
// order, ties broken on ascending message ID. Holding it as an addressable
// field lets sort.Stable take an interface value without allocating a
// closure per call.
type ranking struct {
	items  []*msg.Stored
	scores []float64
}

func (r *ranking) Len() int { return len(r.items) }

func (r *ranking) Less(i, j int) bool {
	return evictsBefore(r.scores[i], r.items[i].M.ID, r.scores[j], r.items[j].M.ID)
}

func (r *ranking) Swap(i, j int) {
	r.items[i], r.items[j] = r.items[j], r.items[i]
	r.scores[i], r.scores[j] = r.scores[j], r.scores[i]
}

// rank loads the items and their drop scores (computed in input order,
// which matters for registered policies that draw from their stream) and
// sorts them.
//
// Performance contract: copies into reused scratch slices in place and
// sorts through the pointer receiver (no interface boxing of values);
// warm, rank allocates nothing.
func (r *ranking) rank(p Policy, v View, items []*msg.Stored) {
	r.items = append(r.items[:0], items...)
	r.scores = r.scores[:0]
	for _, s := range items {
		r.scores = append(r.scores, p.DropScore(v, s))
	}
	sort.Stable(r)
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
	o.evict.rank(p, v, buf.Items())
	inScore = p.DropScore(v, incoming)
	n := 0
	for i, s := range o.evict.items {
		if free >= incoming.M.Size {
			break
		}
		if !evictsBefore(o.evict.scores[i], s.M.ID, inScore, incoming.M.ID) {
			// The weakest survivor outranks the newcomer: reject.
			return nil, nil, inScore, false
		}
		n++
		free += s.M.Size
	}
	return o.evict.items[:n], o.evict.scores[:n], inScore, free >= incoming.M.Size
}

// evictsBefore is the eviction order, SendsBefore's mirror: the lower drop
// score goes first, a NaN score goes before every number, and equal scores
// (or two NaNs) go in ascending message ID order. PlanEviction ranks the
// newcomer by the same rule, so it takes its place in the ranking rather
// than winning ties.
func evictsBefore(score float64, id msg.ID, other float64, otherID msg.ID) bool {
	//lint:ignore float-eq bitwise tie-break: must rank exactly like the eviction sort or Algorithm 1 loops; only exactly equal scores, or two NaNs, fall through to the ID order
	if score != other && !(math.IsNaN(score) && math.IsNaN(other)) {
		return score < other || math.IsNaN(score)
	}
	return id < otherID
}

// SendsBefore reports whether a copy with send score score and message ID
// id is offered before one with score other and ID otherID: the higher
// score goes first, a NaN score never outranks a number, and equal scores
// (or two NaNs) go in ascending message ID order.
func SendsBefore(score float64, id msg.ID, other float64, otherID msg.ID) bool {
	//lint:ignore float-eq bitwise tie-break: only exactly equal scores, or two NaNs, fall through to the ID order
	if score != other && !(math.IsNaN(score) && math.IsNaN(other)) {
		return score > other || math.IsNaN(other)
	}
	return id < otherID
}
