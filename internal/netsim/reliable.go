package netsim

import (
	"math"
	"math/rand"
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
// to its transmitter through the Accountant under the data message's
// phase, so the paper's packet metric reflects the true cost of loss.
// Trace events of all attempts and ACKs of one transfer share a Logical
// id (the first attempt's MsgID), which is what lets the audit passes
// check that a retransmitted message converges to exactly one effective
// delivery or an accounted failure.

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

// ReliabilityAccountant is an optional Accountant extension: an
// accountant implementing it additionally sees retransmissions and
// acknowledgements broken out (they are always also charged through
// OnTx, so total packet accounting needs no special casing).
type ReliabilityAccountant interface {
	Accountant
	OnRetx(node NodeID, phase string, packets, bytes int)
	OnAck(node NodeID, phase string, packets, bytes int)
}

// EnableReliable switches every unicast to reliable transport. The ARQ
// state machine mutates per-link maps from delivery handlers, so enabling
// it reverts a sharded simulator to the classic engine.
func (n *Network) EnableReliable(cfg ReliableConfig) {
	n.fallbackFromSharding("reliable transport")
	n.reliable = true
	n.rcfg = cfg.withDefaults()
}

// Reliable reports whether reliable unicast transport is enabled.
func (n *Network) Reliable() bool { return n.reliable }

// OnGiveUp installs a callback invoked when a reliable unicast exhausts
// its retransmission budget; attempts is the total transmissions spent.
// nil removes the callback.
func (n *Network) OnGiveUp(fn func(m Message, attempts int)) { n.giveUp = fn }

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

// linkLossState is the loss model of one directed link: its rate and a
// private deterministic draw stream.
type linkLossState struct {
	rate float64
	rng  *rand.Rand
}

// SetLinkLossRate overrides the per-packet loss rate of the directed
// link a→b (set the reverse direction separately for asymmetric links).
// A rate <= 0 removes the override, falling back to the global
// SetLossRate model. Each directed link draws from its own stream,
// seeded from the link endpoints, so outcomes are reproducible
// regardless of how transmissions on different links interleave.
func (n *Network) SetLinkLossRate(a, b NodeID, rate float64) {
	l := Link{From: a, To: b}
	if rate <= 0 {
		delete(n.linkLoss, l)
		return
	}
	// Per-link RNG draws mutate shared state from delivery handlers;
	// revert a sharded simulator to the classic engine.
	n.fallbackFromSharding("per-link loss")
	if n.linkLoss == nil {
		n.linkLoss = make(map[Link]*linkLossState)
	}
	s := n.linkLoss[l]
	if s == nil {
		s = &linkLossState{rng: rand.New(rand.NewSource(linkSeed(a, b)))}
		n.linkLoss[l] = s
	}
	s.rate = rate
}

// linkSeed mixes a directed link into a seed (splitmix64 finalizer).
func linkSeed(a, b NodeID) int64 {
	z := uint64(a)*0x9E3779B97F4A7C15 + uint64(b) + 0xD1B54A32D192ED03
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	z ^= z >> 31
	return int64(z & (1<<63 - 1))
}

// lossStream selects the draw stream for the directed link from→to:
// the link override when set, the global model otherwise.
func (n *Network) lossStream(from, to NodeID) (*rand.Rand, float64) {
	if s := n.linkLoss[Link{From: from, To: to}]; s != nil {
		return s.rng, s.rate
	}
	return n.lossRNG, n.lossRate
}

// lostOn is the best-effort loss draw: the message is lost when any of
// its packets is (there is no ARQ to repair a partial reception).
func (n *Network) lostOn(from, to NodeID, packets int) bool {
	rng, rate := n.lossStream(from, to)
	if rng == nil {
		return false
	}
	for i := 0; i < packets; i++ {
		if rng.Float64() < rate {
			return true
		}
	}
	return false
}

// lostCountOn draws per-packet losses for a reliable attempt and
// returns how many of the packets are lost.
func (n *Network) lostCountOn(from, to NodeID, packets int) int {
	rng, rate := n.lossStream(from, to)
	if rng == nil {
		return 0
	}
	lost := 0
	for i := 0; i < packets; i++ {
		if rng.Float64() < rate {
			lost++
		}
	}
	return lost
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
	n.met.InFlight.Inc()
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
	} else {
		n.Retx++
		n.met.Retx.Inc()
	}
	n.met.Tx.Add(int64(send))
	if n.acct != nil {
		n.acct.OnTx(m.Src, m.Phase, send, sendB)
		if p.attempt > 0 {
			if ra, ok := n.acct.(ReliabilityAccountant); ok {
				ra.OnRetx(m.Src, m.Phase, send, sendB)
			}
		}
	}
	n.traceRel("tx", m, send, sendB, msgID, 1, p.attempt, p.logical, false, false)
	air := n.Radio.AirTime(send, sendB)
	switch {
	case !n.LinkOK(m.Src, m.Dst):
		n.Dropped++
		n.met.Drop.Inc()
		n.traceRel("drop", m, send, sendB, msgID, 0, p.attempt, p.logical, false, false)
	case probe:
		if n.lostCountOn(m.Src, m.Dst, send) > 0 {
			n.Lost++
			n.met.Lost.Inc()
			n.traceRel("lost", m, send, sendB, msgID, 0, p.attempt, p.logical, false, false)
		} else {
			n.Sim.Schedule(n.Sim.Now()+air, func() { n.deliverProbe(p, msgID) })
		}
	default:
		lost := n.lostCountOn(m.Src, m.Dst, send)
		arrived := send - lost
		arrivedB := sendB
		if lost > 0 {
			// The byte split follows the packet payload capacity; the
			// ledger invariant Packets(remB) == remain holds throughout.
			arrivedB = min(sendB, arrived*n.Radio.Payload())
			n.Lost++
			n.met.Lost.Inc()
			n.traceRel("lost", m, lost, sendB-arrivedB, msgID, 0, p.attempt, p.logical, false, false)
		}
		if arrived > 0 {
			n.Sim.Schedule(n.Sim.Now()+air, func() { n.deliverReliable(p, msgID, arrived, arrivedB) })
		}
	}
	attempt := p.attempt
	ackAir := n.Radio.AirTime(n.Radio.Packets(n.rcfg.AckBytes), n.rcfg.AckBytes)
	n.Sim.Schedule(n.Sim.Now()+air+ackAir+n.rcfg.backoff(attempt), func() { n.onTimeout(p, attempt) })
}

// deliverReliable fires when an attempt's surviving packets reach the
// receiver: charge the reception, drain the ledger, hand the message to
// the handler once complete, and acknowledge.
func (n *Network) deliverReliable(p *pendingTx, msgID int64, arrived, arrivedB int) {
	m := p.m
	to := m.Dst
	if n.dead[to] {
		n.Dropped++
		n.met.Drop.Inc()
		n.traceRel("drop", m, arrived, arrivedB, msgID, 0, p.attempt, p.logical, false, false)
		return
	}
	p.remain -= arrived
	p.remB -= arrivedB
	if n.acct != nil {
		n.acct.OnRx(to, m.Phase, arrived, arrivedB)
	}
	n.met.Rx.Add(int64(arrived))
	n.traceRel("rx", m, arrived, arrivedB, msgID, 0, p.attempt, p.logical, false, false)
	if p.remain == 0 {
		if n.handler != nil {
			n.handler(to, m)
		}
	}
	n.sendAck(p, to)
}

// deliverProbe fires when a duplicate probe reaches a receiver that
// already has the complete message: the duplicate is suppressed (the
// handler does not run again) and only re-acknowledged.
func (n *Network) deliverProbe(p *pendingTx, msgID int64) {
	m := p.m
	to := m.Dst
	if n.dead[to] {
		n.Dropped++
		n.met.Drop.Inc()
		n.traceRel("drop", m, 1, 0, msgID, 0, p.attempt, p.logical, false, false)
		return
	}
	n.Dups++
	n.met.Dup.Inc()
	if n.acct != nil {
		n.acct.OnRx(to, m.Phase, 1, 0)
	}
	n.met.Rx.Inc()
	n.traceRel("rx", m, 1, 0, msgID, 0, p.attempt, p.logical, true, false)
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
	n.AckTx++
	n.met.Ack.Inc()
	n.met.Tx.Add(int64(packets))
	if n.acct != nil {
		n.acct.OnTx(from, p.m.Phase, packets, size)
		if ra, ok := n.acct.(ReliabilityAccountant); ok {
			ra.OnAck(from, p.m.Phase, packets, size)
		}
	}
	am := Message{Kind: AckKind, Src: from, Dst: dst, Phase: p.m.Phase, Size: size}
	n.traceRel("tx", am, packets, size, msgID, 1, 0, p.logical, false, true)
	switch {
	case !n.LinkOK(from, dst):
		n.Dropped++
		n.met.Drop.Inc()
		n.traceRel("drop", am, packets, size, msgID, 0, 0, p.logical, false, true)
	case n.lostCountOn(from, dst, packets) > 0:
		n.Lost++
		n.met.Lost.Inc()
		n.traceRel("lost", am, packets, size, msgID, 0, 0, p.logical, false, true)
	default:
		final := p.remain == 0
		n.Sim.Schedule(n.Sim.Now()+n.Radio.AirTime(packets, size), func() {
			if n.dead[dst] {
				n.Dropped++
				n.met.Drop.Inc()
				n.traceRel("drop", am, packets, size, msgID, 0, 0, p.logical, false, true)
				return
			}
			if n.acct != nil {
				n.acct.OnRx(dst, am.Phase, packets, size)
			}
			n.traceRel("rx", am, packets, size, msgID, 0, 0, p.logical, false, true)
			if final {
				p.acked = true
			}
		})
	}
}

// onTimeout fires after an attempt's retransmission window: a transfer
// that is not acknowledged retransmits until the budget is exhausted,
// then records the failed directed link and reports the give-up.
func (n *Network) onTimeout(p *pendingTx, attempt int) {
	if p.done || p.attempt != attempt {
		return
	}
	if p.acked || n.dead[p.m.Src] {
		p.done = true
		n.met.InFlight.Dec()
		if !p.acked {
			// Sender died mid-transfer: account the failure for audits.
			n.traceRel("giveup", p.m, p.remain, p.remB, 0, 0, attempt, p.logical, false, false)
		}
		return
	}
	if attempt >= n.rcfg.MaxRetries {
		p.done = true
		n.met.InFlight.Dec()
		n.traceRel("giveup", p.m, p.remain, p.remB, 0, 0, attempt, p.logical, false, false)
		n.GiveUps++
		n.met.GiveUp.Inc()
		if n.exhausted == nil {
			n.exhausted = make(map[Link]int)
		}
		n.exhausted[Link{From: p.m.Src, To: p.m.Dst}]++
		if n.giveUp != nil {
			n.giveUp(p.m, attempt+1)
		}
		return
	}
	p.attempt++
	n.transmit(p)
}

// traceRel emits a radio event of the reliable transport; unlike the
// best-effort trace helper it carries per-attempt packet/byte counts and
// the reliability fields.
func (n *Network) traceRel(event string, m Message, packets, bytes int, msgID int64, expect, attempt int, logical int64, dup, ack bool) {
	if n.tracer == nil {
		return
	}
	n.tracer(TraceEvent{
		Event: event, At: n.Sim.Now(), MsgID: msgID,
		Src: m.Src, Dst: m.Dst, Kind: m.Kind, Phase: m.Phase,
		Bytes: bytes, Packets: packets, Expect: expect,
		Attempt: attempt, Logical: logical, Dup: dup, Ack: ack,
	})
}
