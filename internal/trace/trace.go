// Package trace is the structured per-execution journal and audit
// subsystem. A Recorder collects two event streams into one time-ordered
// journal: radio-level events adapted from netsim's tracer (every
// transmission, reception, drop and loss with its true simulated
// timestamp, packet count and phase) and protocol-level span events
// emitted by the join methods in internal/core (phase transitions,
// Treecut exits, proxy takeovers, filter prune and suppress decisions,
// recovery attempts).
//
// Audit passes (audit.go) run over a finished journal and machine-check
// the invariants the paper's evaluation rests on: conservation (every
// reception traces back to a transmission, and drops/losses explain the
// gaps), reconciliation (journal totals equal the stats.Collector per
// node and phase, bit-exact), slot-schedule ordering (a node never
// transmits before its children's slots in the collection phases), and
// filter soundness (no tuple suppressed in Phase B contributes to the
// ground-truth result).
//
// All Recorder methods are safe on a nil receiver, so instrumented hot
// paths need no guards and cost nothing when tracing is off.
package trace

import (
	"sort"
	"sync"

	"sensjoin/internal/netsim"
	"sensjoin/internal/topology"
)

// Kind classifies a journal event.
type Kind uint8

// Radio-level kinds mirror netsim's tracer; span kinds are emitted by
// the protocol implementations in internal/core.
const (
	// KindTx is one transmission (a broadcast is a single tx).
	KindTx Kind = iota
	// KindRx is one delivery, stamped at its arrival time.
	KindRx
	// KindDrop is a failed delivery: link down or receiver dead
	// (including a receiver that died while the message was in flight).
	KindDrop
	// KindLost is a message removed by the probabilistic loss model.
	KindLost
	// KindPhaseStart/KindPhaseEnd bracket a protocol phase (A/B/C, the
	// external collection wave); Phase carries the accounting label.
	KindPhaseStart
	KindPhaseEnd
	// KindTreecut marks a node exiting the query via Treecut (§IV-B);
	// Arg is the complete tuples it shipped.
	KindTreecut
	// KindProxy marks a node taking over proxy duty for its subtree's
	// complete tuples; Arg is the tuple count stored.
	KindProxy
	// KindPrune marks a Selective-Filter-Forwarding decision (§IV-C);
	// Arg is the number of filter keys removed for the subtree.
	KindPrune
	// KindSuppress marks a tuple pruned in Phase B: the filter did not
	// contain its key, so it never ships. Node is the deciding node,
	// Peer the tuple's owner. Filter soundness audits these.
	KindSuppress
	// KindRecovery marks a routing-tree repair before a re-execution
	// (§IV-F); Arg is the attempt number.
	KindRecovery
	// KindGiveUp marks a reliable transfer ending without delivery:
	// retransmissions exhausted (or the sender died mid-transfer). It is
	// the "accounted failure" leg of the reliability audit — every
	// reliable transfer must converge to exactly one effective delivery
	// or one of these.
	KindGiveUp
	// KindRerequest marks the base station re-requesting a missing
	// subtree during scoped recovery; Node is the subtree root, Arg the
	// recovery round.
	KindRerequest
	// KindStandDown marks a subtree falling back to ship-everything mode
	// because filter dissemination to it could not be confirmed; Node is
	// the subtree root.
	KindStandDown
	// KindChurnDeath marks a node taken offline by the churn injector.
	KindChurnDeath
	// KindChurnRejoin marks a dead node the churn injector revived.
	KindChurnRejoin
	// KindChurnMove marks a mobility step that flipped at least one of
	// the node's links; Arg is the number of links that changed state.
	KindChurnMove
	// KindRepair marks a mid-round incremental tree repair; Node is the
	// base station, Arg the number of nodes re-parented. The churn audit
	// uses it to check a repaired run still ends oracle-exact or flagged.
	KindRepair
	// KindFanout marks the base station fanning a shared-execution
	// round's tuples out to one member query of a core.QueryGroup; Node
	// is the base station, Arg the member's row count. In a shared round
	// these are the only events tagged with an individual member's trace
	// ID — everything else carries the group's tag.
	KindFanout
)

var kindNames = [...]string{
	KindTx: "tx", KindRx: "rx", KindDrop: "drop", KindLost: "lost",
	KindPhaseStart: "phase-start", KindPhaseEnd: "phase-end",
	KindTreecut: "treecut", KindProxy: "proxy", KindPrune: "prune",
	KindSuppress: "suppress", KindRecovery: "recovery",
	KindGiveUp: "give-up", KindRerequest: "rerequest", KindStandDown: "stand-down",
	KindChurnDeath: "churn-death", KindChurnRejoin: "churn-rejoin",
	KindChurnMove: "churn-move", KindRepair: "repair",
	KindFanout: "fanout",
}

// String returns the kind's JSONL name.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "unknown"
}

// Radio reports whether k is a radio-level event.
func (k Kind) Radio() bool { return k <= KindLost }

// Event is one journal entry. For radio events Node is the sender and
// Peer the receiver (the concrete receiver on per-receiver outcome
// events, BroadcastID on a broadcast tx); receptions are charged to
// Peer. For span events Node is the acting node and Peer is
// kind-specific (the suppressed tuple's owner for KindSuppress, -1
// otherwise).
type Event struct {
	Seq   int             `json:"seq"`
	At    float64         `json:"at"`
	Kind  Kind            `json:"-"`
	Node  topology.NodeID `json:"node"`
	Peer  topology.NodeID `json:"peer"`
	MsgID int64           `json:"msg,omitempty"`
	Phase string          `json:"phase,omitempty"`
	// Packets, Bytes and Expect are set on radio events only; Expect on
	// tx events is the number of receivers the medium attempts delivery
	// to.
	Packets int `json:"packets,omitempty"`
	Bytes   int `json:"bytes,omitempty"`
	Expect  int `json:"expect,omitempty"`
	// Arg carries kind-specific data for span events.
	Arg int `json:"arg,omitempty"`
	// Attempt is the reliable transport's transmission attempt (0 = the
	// first transmission).
	Attempt int `json:"attempt,omitempty"`
	// Logical groups all attempts and ACKs of one reliable transfer: the
	// MsgID of its first attempt. Zero on best-effort events.
	Logical int64 `json:"logical,omitempty"`
	// Dup marks a reception suppressed as a duplicate.
	Dup bool `json:"dup,omitempty"`
	// Ack marks link-layer acknowledgement events.
	Ack bool `json:"ack,omitempty"`
	// Trace attributes the event to a request-scoped trace ID (the
	// serving path's per-query attribution). Empty on library runs.
	Trace string `json:"trace,omitempty"`
}

// Recorder accumulates events. The zero-cost rule: every method is a
// no-op on a nil *Recorder, so call sites need no guards.
//
// A recorder is single-goroutine by default; SetConcurrent(true) makes
// appends mutex-guarded so the sharded engine's region workers can emit
// protocol spans in parallel. Worker interleaving cannot leak into the
// recording: journals are rebuilt in canonical order (see Journal)
// whenever one is cut.
type Recorder struct {
	mu         sync.Mutex
	concurrent bool
	tag        string
	events     []Event
	// sealed is the length of the prefix already in canonical order;
	// the unsorted tail is ordered (and the prefix extended) whenever a
	// journal is built.
	sealed int
}

// New returns an empty recorder.
func New() *Recorder { return &Recorder{} }

// Enabled reports whether events are being recorded. Use it to guard
// work that only exists to feed the recorder (e.g. scheduling extra
// simulator events for phase boundaries).
func (r *Recorder) Enabled() bool { return r != nil }

// SetConcurrent toggles mutex-guarded appends. Turn it on before a run
// whose engine emits events from multiple goroutines (the sharded
// simulator), and only while no other recorder method is in flight.
func (r *Recorder) SetConcurrent(on bool) {
	if r == nil {
		return
	}
	r.concurrent = on
}

// SetTag stamps every subsequently appended event's Trace field with
// tag — the serving path's per-query (or per-group) attribution. An
// empty tag stops stamping.
func (r *Recorder) SetTag(tag string) {
	if r == nil {
		return
	}
	if r.concurrent {
		r.mu.Lock()
		defer r.mu.Unlock()
	}
	r.tag = tag
}

// append stamps the sequence number and the current tag and records the
// event, under the mutex when the recorder is in concurrent mode.
func (r *Recorder) append(ev Event) {
	if r.concurrent {
		r.mu.Lock()
		defer r.mu.Unlock()
	}
	ev.Seq = len(r.events)
	if ev.Trace == "" {
		ev.Trace = r.tag
	}
	r.events = append(r.events, ev)
}

// Radio returns a netsim tracer that appends radio events to the
// journal (nil for a nil recorder). Install it with Network.SetTracer.
func (r *Recorder) Radio() netsim.Tracer {
	if r == nil {
		return nil
	}
	return func(ev netsim.TraceEvent) {
		var k Kind
		switch ev.Event {
		case "tx":
			k = KindTx
		case "rx":
			k = KindRx
		case "drop":
			k = KindDrop
		case "lost":
			k = KindLost
		case "giveup":
			k = KindGiveUp
		default:
			return
		}
		r.append(Event{
			At: ev.At, Kind: k,
			Node: ev.Src, Peer: ev.Dst, MsgID: ev.MsgID, Phase: ev.Phase,
			Packets: ev.Packets, Bytes: ev.Bytes, Expect: ev.Expect,
			Attempt: ev.Attempt, Logical: ev.Logical, Dup: ev.Dup, Ack: ev.Ack,
		})
	}
}

// Span appends a protocol-level event at time at. Safe on nil.
func (r *Recorder) Span(at float64, k Kind, node, peer topology.NodeID, phase string, arg int) {
	if r == nil {
		return
	}
	r.append(Event{
		At: at, Kind: k,
		Node: node, Peer: peer, Phase: phase, Arg: arg,
	})
}

// SpanTagged is Span with an explicit per-event trace tag overriding
// the recorder's ambient tag — the group fan-out uses it to attribute
// each member's rows to that member's own trace ID.
func (r *Recorder) SpanTagged(at float64, k Kind, node, peer topology.NodeID, phase string, arg int, tag string) {
	if r == nil {
		return
	}
	r.append(Event{
		At: at, Kind: k,
		Node: node, Peer: peer, Phase: phase, Arg: arg, Trace: tag,
	})
}

// Mark returns the current journal length; JournalSince and Truncate
// take it to delimit one execution inside a longer recording. Marking
// seals the buffer: the canonical sort never moves an event across a
// mark, so a later journal cut contains exactly the events recorded
// after the mark.
func (r *Recorder) Mark() int {
	if r == nil {
		return 0
	}
	r.seal()
	return len(r.events)
}

// Truncate discards events from mark on (auto-audited runs bound the
// journal's memory this way after each per-run audit).
func (r *Recorder) Truncate(mark int) {
	if r == nil || mark >= len(r.events) {
		return
	}
	r.events = r.events[:mark]
	if r.sealed > mark {
		r.sealed = mark
	}
}

// Journal returns the full recording. The events alias the recorder's
// buffer; audit before recording further.
func (r *Recorder) Journal() *Journal { return r.JournalSince(0) }

// JournalSince returns the recording from mark on, in canonical order.
//
// Canonical order sorts the buffer's unsealed tail by the full event
// record — simulated time major, then node, kind and every remaining
// field — so a journal depends only on the multiset of events, never on
// emission interleaving. That is what makes sharded-engine journals
// byte-identical to the classic engine's for any shard count. Sorting
// only the tail is sound because executions never rewind simulated
// time past an already-cut journal.
func (r *Recorder) JournalSince(mark int) *Journal {
	if r == nil {
		return &Journal{}
	}
	r.seal()
	return &Journal{Events: r.events[mark:]}
}

// seal sorts the buffer's unsealed tail into canonical order and
// extends the sealed prefix over it. Sorting only the tail is sound
// because simulated time never rewinds past a seal point (marks and
// journal cuts happen between runs, with the simulator quiescent).
func (r *Recorder) seal() {
	if r.sealed == len(r.events) {
		return
	}
	tail := r.events[r.sealed:]
	sort.SliceStable(tail, func(i, j int) bool { return canonLess(&tail[i], &tail[j]) })
	for i := range tail {
		tail[i].Seq = r.sealed + i
	}
	r.sealed = len(r.events)
}

// canonLess is the canonical journal order: a full-record lexicographic
// key with the simulated timestamp major. Two equal records compare
// equal, so identical event multisets produce identical journals
// regardless of the order the engine emitted them in.
func canonLess(a, b *Event) bool {
	switch {
	case a.At != b.At:
		return a.At < b.At
	case a.Node != b.Node:
		return a.Node < b.Node
	case a.Kind != b.Kind:
		return kindRank(a.Kind) < kindRank(b.Kind)
	case a.Peer != b.Peer:
		return a.Peer < b.Peer
	case a.MsgID != b.MsgID:
		return a.MsgID < b.MsgID
	case a.Phase != b.Phase:
		return a.Phase < b.Phase
	case a.Arg != b.Arg:
		return a.Arg < b.Arg
	case a.Attempt != b.Attempt:
		return a.Attempt < b.Attempt
	case a.Logical != b.Logical:
		return a.Logical < b.Logical
	case a.Packets != b.Packets:
		return a.Packets < b.Packets
	case a.Bytes != b.Bytes:
		return a.Bytes < b.Bytes
	case a.Expect != b.Expect:
		return a.Expect < b.Expect
	case a.Dup != b.Dup:
		return b.Dup
	case a.Ack != b.Ack:
		return b.Ack
	default:
		return a.Trace < b.Trace
	}
}

// kindRank orders kinds within one (time, node) instant so the
// canonical order keeps phase brackets meaningful: a phase-start
// precedes the node's same-instant radio traffic, a phase-end follows
// it, and the remaining span kinds sit in between in enum order.
func kindRank(k Kind) int {
	switch {
	case k == KindPhaseStart:
		return 0
	case k.Radio():
		return 1 + int(k)
	case k == KindPhaseEnd:
		return 1 << 10
	default:
		return 8 + int(k)
	}
}

// Journal is a finished recording: events in canonical order (simulated
// time major; full-record tie-break, see JournalSince).
type Journal struct {
	Events []Event
}

// Radio iterates the radio-level events.
func (j *Journal) Radio(fn func(Event)) {
	for _, ev := range j.Events {
		if ev.Kind.Radio() {
			fn(ev)
		}
	}
}

// HasLoss reports whether the journal contains any lost or dropped
// message — executions where the network itself removed data, which
// audits that assume a faultless run must skip.
func (j *Journal) HasLoss() bool {
	for _, ev := range j.Events {
		if ev.Kind == KindDrop || ev.Kind == KindLost {
			return true
		}
	}
	return false
}
