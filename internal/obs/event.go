// Package obs is the simulator's observability layer: structured lifecycle
// events, pluggable sinks, and run-level performance metrics.
//
// The design follows the ONE simulator's report modules and UDTNSim's event
// log: every message, contact, and transfer transition is a typed Event that
// instrumented packages emit through a Tracer, and the event stream is the
// only way hosts and the radio report. Every run has a tracer: world.Build
// hands them Multi(the run's stats.Collector, the caller's sink), so the
// run's own counters are a fold of the very events the JSONL log records,
// and emit sites carry no nil guard. An emit costs an Event passed by value
// and one interface call per sink; PERFORMANCE.md §10 has the measured cost
// of the always-on collector.
//
// Sinks:
//
//   - JSONL writes one deterministic JSON object per line (same seed ⇒
//     byte-identical log), for offline lifecycle reconstruction.
//   - Ring keeps the last N events in memory, for tests and debugging.
//   - Ledger folds events into per-message provenance records and per-type
//     event counts; it is the one offline fold of a log.
//   - Multi fans an event out to several sinks.
package obs

import (
	"strconv"

	"sdsrp/internal/msg"
)

// Type classifies a trace event.
type Type uint8

const (
	// MessageCreated: a source generated a message (Node = source,
	// Peer = destination, Size, Copies = initial spray tokens L).
	MessageCreated Type = iota
	// MessageForwarded: a replication transfer committed (Node = sender,
	// Peer = receiver, Copies = tokens the receiver obtained, Kind = spray /
	// spray-source / relay / handoff).
	MessageForwarded
	// MessageDelivered: the destination consumed the message (Node = last
	// relay, Peer = destination, Hops, Latency seconds since creation).
	MessageDelivered
	// MessageDropped: a buffer-management eviction — the paper's policy
	// drop (Node = evicting host, Priority = the policy's drop score for
	// the victim at eviction time; for SDSRP this is the Eq. 10 utility).
	MessageDropped
	// MessageExpired: TTL removal (Node = host sweeping the copy).
	MessageExpired
	// MessageRefused: a transfer declined before or after the bytes moved —
	// dropped-list rejection, duplicate copy, or preflight overflow
	// (Node = sender, Peer = refusing receiver).
	MessageRefused
	// ContactUp: two nodes moved into radio range (Node < Peer).
	ContactUp
	// ContactDown: the contact ended (Node < Peer).
	ContactDown
	// TransferStart: bytes started moving (Node = sender, Peer = receiver,
	// Size, Kind).
	TransferStart
	// TransferAbort: an in-flight transfer died — link down, TTL expiry in
	// flight, or the sender's copy vanished (Node = sender, Peer =
	// receiver).
	TransferAbort
	// TransferLost: the transfer completed on the wire but the receiver
	// discarded it — injected radio loss or a black-hole node swallowing the
	// copy (Node = sender, Peer = receiver).
	TransferLost
	// NodeDown: churn crashed the host (Node).
	NodeDown
	// NodeUp: the host rebooted after an outage (Node).
	NodeUp
	// LinkFlap: the fault layer cut a live contact short (Node < Peer); a
	// contact_down for the pair follows immediately.
	LinkFlap
	// MessagePurged: a copy left a buffer outside the policy and TTL paths
	// (Node = holder, Kind = "ack" for an ACK-immunization purge, "wipe"
	// for a churn reboot that lost the whole buffer).
	MessagePurged
	// Snapshot: a periodic whole-network state sample emitted by the
	// world's sampler (LiveMsgs distinct buffered messages, LiveCopies
	// total buffered copies, Contacts active links, Queue live engine
	// events, Fill mean buffer fill over hosts with a byte budget, Used
	// per-node buffer occupancy in bytes). Snapshots ride the
	// same deterministic JSONL stream as lifecycle events, giving offline
	// tools the congestion signal without a second log. Snapshot stays the
	// last Type: consumers size per-type tables as [Snapshot + 1].
	Snapshot

	numTypes = int(Snapshot) + 1
)

// String returns the stable wire name used in the JSONL log.
func (t Type) String() string {
	switch t {
	case MessageCreated:
		return "created"
	case MessageForwarded:
		return "forwarded"
	case MessageDelivered:
		return "delivered"
	case MessageDropped:
		return "dropped"
	case MessageExpired:
		return "expired"
	case MessageRefused:
		return "refused"
	case ContactUp:
		return "contact_up"
	case ContactDown:
		return "contact_down"
	case TransferStart:
		return "transfer_start"
	case TransferAbort:
		return "transfer_abort"
	case TransferLost:
		return "transfer_lost"
	case NodeDown:
		return "node_down"
	case NodeUp:
		return "node_up"
	case LinkFlap:
		return "link_flap"
	case MessagePurged:
		return "purged"
	case Snapshot:
		return "snapshot"
	default:
		return "unknown"
	}
}

// Event is one simulation occurrence. Which fields are meaningful depends on
// Type (see the Type constants); AppendJSON serializes exactly the
// meaningful set, so the log carries no zero-noise.
type Event struct {
	T        float64 // simulation time in seconds
	Type     Type
	Msg      msg.ID  // message-scoped events
	Node     int     // primary actor (sender, holder, or lower contact end)
	Peer     int     // counterpart (receiver, destination, upper contact end)
	Size     int64   // bytes (created, transfer_start)
	Copies   int     // spray tokens (created, forwarded)
	Hops     int     // path length (delivered)
	Latency  float64 // seconds from creation to delivery (delivered)
	Priority float64 // policy drop score of the victim (dropped)
	Kind     string  // transfer semantics (forwarded, transfer_start) or purge cause (purged)

	// Snapshot-only fields (Type == Snapshot); zero otherwise.
	LiveMsgs   int     // distinct messages with at least one buffered copy
	LiveCopies int     // buffered copies network-wide
	Contacts   int     // active links at sample time
	Queue      int     // live (non-canceled) engine events pending
	Fill       float64 // mean Used/capacity over hosts with a non-zero capacity (0 when none)
	Used       []int64 // per-node buffer occupancy in bytes, indexed by node
}

// AppendJSON appends the event as a single JSON object (no trailing newline)
// and returns the extended slice. Encoding is deterministic: fixed key
// order, strconv 'g' float formatting, no reflection.
func (e Event) AppendJSON(b []byte) []byte {
	b = append(b, `{"t":`...)
	b = strconv.AppendFloat(b, e.T, 'g', -1, 64)
	b = append(b, `,"type":"`...)
	b = append(b, e.Type.String()...)
	b = append(b, '"')
	switch e.Type {
	case ContactUp, ContactDown:
		b = appendIntField(b, "node", int64(e.Node))
		b = appendIntField(b, "peer", int64(e.Peer))
	case MessageCreated:
		b = appendIntField(b, "msg", int64(e.Msg))
		b = appendIntField(b, "node", int64(e.Node))
		b = appendIntField(b, "peer", int64(e.Peer))
		b = appendIntField(b, "size", e.Size)
		b = appendIntField(b, "copies", int64(e.Copies))
	case MessageForwarded:
		b = appendIntField(b, "msg", int64(e.Msg))
		b = appendIntField(b, "node", int64(e.Node))
		b = appendIntField(b, "peer", int64(e.Peer))
		b = appendIntField(b, "copies", int64(e.Copies))
		b = appendStrField(b, "kind", e.Kind)
	case MessageDelivered:
		b = appendIntField(b, "msg", int64(e.Msg))
		b = appendIntField(b, "node", int64(e.Node))
		b = appendIntField(b, "peer", int64(e.Peer))
		b = appendIntField(b, "hops", int64(e.Hops))
		b = appendFloatField(b, "latency", e.Latency)
	case MessageDropped:
		b = appendIntField(b, "msg", int64(e.Msg))
		b = appendIntField(b, "node", int64(e.Node))
		b = appendFloatField(b, "priority", e.Priority)
	case MessageExpired:
		b = appendIntField(b, "msg", int64(e.Msg))
		b = appendIntField(b, "node", int64(e.Node))
	case MessagePurged:
		b = appendIntField(b, "msg", int64(e.Msg))
		b = appendIntField(b, "node", int64(e.Node))
		b = appendStrField(b, "kind", e.Kind)
	case MessageRefused, TransferAbort, TransferLost:
		b = appendIntField(b, "msg", int64(e.Msg))
		b = appendIntField(b, "node", int64(e.Node))
		b = appendIntField(b, "peer", int64(e.Peer))
	case NodeDown, NodeUp:
		b = appendIntField(b, "node", int64(e.Node))
	case LinkFlap:
		b = appendIntField(b, "node", int64(e.Node))
		b = appendIntField(b, "peer", int64(e.Peer))
	case TransferStart:
		b = appendIntField(b, "msg", int64(e.Msg))
		b = appendIntField(b, "node", int64(e.Node))
		b = appendIntField(b, "peer", int64(e.Peer))
		b = appendIntField(b, "size", e.Size)
		b = appendStrField(b, "kind", e.Kind)
	case Snapshot:
		b = appendIntField(b, "live_msgs", int64(e.LiveMsgs))
		b = appendIntField(b, "live_copies", int64(e.LiveCopies))
		b = appendIntField(b, "contacts", int64(e.Contacts))
		b = appendIntField(b, "queue", int64(e.Queue))
		b = appendFloatField(b, "fill", e.Fill)
		b = append(b, `,"used":[`...)
		for i, u := range e.Used {
			if i > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendInt(b, u, 10)
		}
		b = append(b, ']')
	}
	return append(b, '}')
}

func appendIntField(b []byte, key string, v int64) []byte {
	b = append(b, ',', '"')
	b = append(b, key...)
	b = append(b, '"', ':')
	return strconv.AppendInt(b, v, 10)
}

func appendFloatField(b []byte, key string, v float64) []byte {
	b = append(b, ',', '"')
	b = append(b, key...)
	b = append(b, '"', ':')
	return strconv.AppendFloat(b, v, 'g', -1, 64)
}

// appendStrField assumes v needs no JSON escaping; event Kind strings are
// fixed protocol identifiers.
func appendStrField(b []byte, key string, v string) []byte {
	b = append(b, ',', '"')
	b = append(b, key...)
	b = append(b, '"', ':', '"')
	b = append(b, v...)
	return append(b, '"')
}
