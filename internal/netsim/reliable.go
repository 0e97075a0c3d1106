package netsim

import (
	"fmt"
	"math"
)

// Reliable hop-by-hop unicast transport.
//
// The paper's evaluation assumes the reliable delivery the TinyOS
// collection stack provides through link-layer acknowledgements and
// retransmissions. EnableReliable turns the same mechanism on for every
// unicast: the receiver acknowledges each transmission attempt, the
// sender retransmits the packets the receiver still misses (selective
// repeat) after a deterministic exponential backoff, and gives up after
// a bounded number of attempts — recording the exhausted directed link
// so routing can steer around a persistently failing link. Broadcasts
// stay best-effort, exactly like the radio they model.
//
// Accounting is honest: every retransmission and every ACK is charged
// to its transmitter under the data message's phase (SideTx, and SideRetx
// or SideAck beside it), so the paper's packet metric reflects the true
// cost of loss.
// Trace events of all attempts and ACKs of one transfer share a Logical
// id (the first attempt's MsgID), which is what lets the audit passes
// check that a retransmitted message converges to exactly one effective
// delivery or an accounted failure.
//
// Under sharding a transfer's state is touched by two regions only: the
// sender's (attempts, timeouts, the ACK's arrival) and the receiver's
// delivery events (the packet ledger). A delivery and the sender's next
// look at the ledger — the timeout it acknowledges — lie ACK air time
// plus backoff apart, which checkLookahead holds at or above the window
// width, so the two never share a window and the barrier orders them.
// Records and give-ups go through the region buffers like every other
// shared write (network.go).

// AckKind is the reserved message kind of link-layer acknowledgements.
// ACKs terminate at the radio layer; they are never passed to node
// handlers.
const AckKind = -9

// ReliableConfig tunes the reliable-unicast mode. The zero value
// selects the defaults.
type ReliableConfig struct {
	// MaxRetries bounds the retransmission attempts after the first
	// transmission (default 8). An exhausted transfer is reported via
	// ExhaustedLinks and the OnGiveUp callback.
	MaxRetries int
	// AckBytes is the payload size of an acknowledgement (default 0 —
	// one control packet).
	AckBytes int
	// BackoffBase is the extra wait before the first retransmission,
	// beyond the data and ACK air time (default 1 ms).
	BackoffBase Time
	// BackoffFactor multiplies the backoff per attempt (default 2).
	BackoffFactor float64
}

func (c ReliableConfig) withDefaults() ReliableConfig {
	if c.MaxRetries == 0 {
		c.MaxRetries = 8
	}
	if c.BackoffBase == 0 {
		c.BackoffBase = 0.001
	}
	if c.BackoffFactor == 0 {
		c.BackoffFactor = 2
	}
	return c
}

// backoff returns the extra wait after transmission attempt (0-based)
// before the next retransmission.
func (c ReliableConfig) backoff(attempt int) Time {
	return c.BackoffBase * math.Pow(c.BackoffFactor, float64(attempt))
}

// Link is a directed link between two nodes.
type Link struct{ From, To NodeID }

// EnableReliable switches every unicast to reliable transport. It panics
// on a sharded simulator whose lookahead the configuration's ACK air time
// plus backoff falls below (see checkLookahead).
func (n *Network) EnableReliable(cfg ReliableConfig) {
	n.reliable = true
	n.rcfg = cfg.withDefaults()
	n.checkLookahead()
}

// DisableReliable switches unicast back to best-effort delivery. The
// exhausted-link record stays until ClearExhaustedLinks consumes it.
func (n *Network) DisableReliable() { n.reliable, n.rcfg = false, ReliableConfig{} }

// checkLookahead asserts what lets a reliable transfer's two regions
// share its state without a lock: between a delivery and the timeout that
// next reads the ledger there is ACK air time plus the attempt's backoff,
// and that must be no shorter than a window.
func (n *Network) checkLookahead() {
	if !n.reliable || !n.Sim.Sharded() {
		return
	}
	for a := 0; a <= n.rcfg.MaxRetries; a++ {
		if gap := n.ackAir() + n.rcfg.backoff(a); gap < n.Sim.lookahead {
			panic(fmt.Sprintf("netsim: ACK air time plus backoff %g s (attempt %d) is below the sharded lookahead %g s", gap, a, n.Sim.lookahead))
		}
	}
}

// ackAir is the air time of one acknowledgement.
func (n *Network) ackAir() Time {
	return n.Radio.AirTime(n.Radio.Packets(n.rcfg.AckBytes), n.rcfg.AckBytes)
}

// Reliable reports whether reliable unicast transport is enabled.
func (n *Network) Reliable() bool { return n.reliable }

// OnGiveUp installs a callback invoked when a reliable unicast exhausts
// its retransmission budget; attempts is the total transmissions spent
// and at the instant the sender gave up. It runs single-threaded at the
// next drain — before the next coordinator event or when the run ends —
// in (at, sender, transfer) order. nil removes the callback.
func (n *Network) OnGiveUp(fn func(m Message, attempts int, at Time)) { n.giveUp = fn }

// ExhaustedLinks returns a copy of the per-directed-link counts of
// transfers that exhausted their retransmissions — the signal routing
// uses to re-select parents around persistently failing links.
func (n *Network) ExhaustedLinks() map[Link]int {
	out := make(map[Link]int, len(n.exhausted))
	for l, c := range n.exhausted {
		out[l] = c
	}
	return out
}

// ClearExhaustedLinks resets the exhaustion counts (after a tree
// rebuild consumed them).
func (n *Network) ClearExhaustedLinks() { n.exhausted = nil }

// SetLinkLossRate overrides the per-packet loss rate of the directed
// link a→b (set the reverse direction separately for asymmetric links).
// A rate <= 0 removes the override, falling back to the global
// SetLossRate model. The link draws the global model's stateless draw
// (lossDraw), so its outcomes do not depend on how transmissions on
// different links interleave.
func (n *Network) SetLinkLossRate(a, b NodeID, rate float64) {
	l := Link{From: a, To: b}
	if rate <= 0 {
		delete(n.linkLoss, l)
		return
	}
	if n.linkLoss == nil {
		n.linkLoss = make(map[Link]float64)
	}
	n.linkLoss[l] = rate
}

// pendingTx tracks one reliable unicast across its transmission
// attempts. remaining/remBytes is the packet ledger of what the
// receiver still misses; the simulator keeps it exact (real stacks
// track it with sequence numbers), so a retransmission carries exactly
// the missing packets. The in-memory payload is handed to the receiver
// only when the ledger drains to zero.
type pendingTx struct {
	m       Message
	logical int64
	total   int // packets of the full message
	remain  int
	remB    int
	attempt int
	acked   bool
	done    bool
}

// sendReliable starts a reliable unicast transfer.
func (n *Network) sendReliable(m Message) {
	packets := n.Radio.Packets(m.Size)
	p := &pendingTx{m: m, total: packets, remain: packets, remB: m.Size}
	n.met.inFlight.Inc()
	n.transmit(p)
}

// transmit performs one transmission attempt of p: charge the sender,
// draw per-packet loss, schedule the (partial) delivery and the
// retransmission timeout. When the transfer is already fully delivered
// but the final ACK was lost, a one-packet probe solicits a fresh ACK;
// its reception is a suppressed duplicate.
func (n *Network) transmit(p *pendingTx) {
	m := p.m
	send, sendB := p.remain, p.remB
	probe := false
	if send == 0 {
		send, sendB, probe = 1, 0, true
	}
	msgID := n.nextMsgID(m.Src)
	if p.attempt == 0 {
		p.logical = msgID
	}
	n.record(ActTx, m.Src, &p.m, send, sendB, msgID, p, 0)
	now := n.Sim.NodeNow(m.Src)
	air := n.Radio.AirTime(send, sendB)
	switch {
	case !n.LinkOK(m.Src, m.Dst):
		n.record(ActDrop, m.Src, &p.m, send, sendB, msgID, p, 0)
	case probe:
		if n.lostPackets(m.Src, m.Dst, msgID, send) > 0 {
			n.record(ActLost, m.Src, &p.m, send, sendB, msgID, p, 0)
		} else {
			n.Sim.ScheduleNode(m.Src, m.Dst, now+air, func() { n.deliverProbe(p, msgID) })
		}
	default:
		lost := n.lostPackets(m.Src, m.Dst, msgID, send)
		arrived := send - lost
		arrivedB := sendB
		if lost > 0 {
			// The byte split follows the packet payload capacity; the
			// ledger invariant Packets(remB) == remain holds throughout.
			arrivedB = min(sendB, arrived*n.Radio.Payload())
			n.record(ActLost, m.Src, &p.m, lost, sendB-arrivedB, msgID, p, 0)
		}
		if arrived > 0 {
			n.Sim.ScheduleNode(m.Src, m.Dst, now+air, func() { n.deliverReliable(p, msgID, arrived, arrivedB) })
		}
	}
	attempt := p.attempt
	n.Sim.ScheduleNode(m.Src, m.Src, now+air+n.ackAir()+n.rcfg.backoff(attempt), func() { n.onTimeout(p, attempt) })
}

// deliverReliable fires when an attempt's surviving packets reach the
// receiver: record the reception, drain the ledger, hand the message to
// the handler once complete, and acknowledge.
func (n *Network) deliverReliable(p *pendingTx, msgID int64, arrived, arrivedB int) {
	to := p.m.Dst
	if n.dead[to] {
		n.record(ActDrop, to, &p.m, arrived, arrivedB, msgID, p, 0)
		return
	}
	p.remain -= arrived
	p.remB -= arrivedB
	n.record(ActRx, to, &p.m, arrived, arrivedB, msgID, p, 0)
	if p.remain == 0 {
		if n.handler != nil {
			n.handler(to, p.m)
		}
	}
	n.sendAck(p, to)
}

// deliverProbe fires when a duplicate probe reaches a receiver that
// already has the complete message: the duplicate is suppressed (the
// handler does not run again) and only re-acknowledged.
func (n *Network) deliverProbe(p *pendingTx, msgID int64) {
	to := p.m.Dst
	if n.dead[to] {
		n.record(ActDrop, to, &p.m, 1, 0, msgID, p, 0)
		return
	}
	n.record(ActRx, to, &p.m, 1, 0, msgID, p, dupMark)
	n.sendAck(p, to)
}

// sendAck transmits the link-layer acknowledgement for p's latest
// attempt from the receiver back to the sender, charged to the receiver
// under the data message's phase. ACKs are themselves best-effort (a
// lost ACK costs one retransmission round) and are never acknowledged.
func (n *Network) sendAck(p *pendingTx, from NodeID) {
	dst := p.m.Src
	size := n.rcfg.AckBytes
	packets := n.Radio.Packets(size)
	msgID := n.nextMsgID(from)
	n.record(ActTx, from, &p.m, packets, size, msgID, p, ackMark)
	switch {
	case !n.LinkOK(from, dst):
		n.record(ActDrop, from, &p.m, packets, size, msgID, p, ackMark)
	case n.lostPackets(from, dst, msgID, packets) > 0:
		n.record(ActLost, from, &p.m, packets, size, msgID, p, ackMark)
	default:
		final := p.remain == 0
		n.Sim.ScheduleNode(from, dst, n.Sim.NodeNow(from)+n.Radio.AirTime(packets, size), func() {
			if n.dead[dst] {
				n.record(ActDrop, dst, &p.m, packets, size, msgID, p, ackMark)
				return
			}
			n.record(ActRx, dst, &p.m, packets, size, msgID, p, ackMark)
			if final {
				p.acked = true
			}
		})
	}
}

// onTimeout fires after an attempt's retransmission window: a transfer
// that is not acknowledged retransmits until the budget is exhausted,
// then gives up — buffered in the sender's region until drain records
// the failed directed link and reports it.
func (n *Network) onTimeout(p *pendingTx, attempt int) {
	if p.done || p.attempt != attempt {
		return
	}
	src := p.m.Src
	if p.acked || n.dead[src] {
		p.done = true
		n.met.inFlight.Dec()
		if !p.acked {
			// Sender died mid-transfer: account the failure for audits.
			n.record(ActGiveUp, src, &p.m, p.remain, p.remB, 0, p, 0)
		}
		return
	}
	if attempt >= n.rcfg.MaxRetries {
		p.done = true
		n.met.inFlight.Dec()
		n.record(ActGiveUp, src, &p.m, p.remain, p.remB, 0, p, 0)
		r := &n.reg[n.Sim.region(src)]
		r.giveUps = append(r.giveUps, giveUp{at: n.Sim.NodeNow(src), m: p.m, attempts: attempt + 1, logical: p.logical})
		return
	}
	p.attempt++
	n.transmit(p)
}
