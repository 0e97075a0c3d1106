package netsim

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"sensjoin/internal/topology"
)

// NodeID identifies a node; it mirrors topology.NodeID.
type NodeID = topology.NodeID

// BroadcastID addresses a message to all live neighbors of the sender.
const BroadcastID NodeID = -1

// RadioConfig describes the packet-level radio model.
type RadioConfig struct {
	// MaxPacket is the maximum over-the-air packet size in bytes
	// (paper default: 48; the packet-size experiment uses 124).
	MaxPacket int
	// HeaderBytes is the fixed per-packet header; payload capacity is
	// MaxPacket - HeaderBytes.
	HeaderBytes int
	// BitRate is the radio data rate in bits/s (802.15.4: 250 kbit/s).
	BitRate float64
	// PacketOverhead is the fixed per-packet channel time in seconds
	// (acquisition, synchronization); it dominates small packets, which
	// is the paper's justification for counting transmissions.
	PacketOverhead float64
}

// DefaultRadio returns the paper's default radio model.
func DefaultRadio() RadioConfig {
	return RadioConfig{MaxPacket: 48, HeaderBytes: 8, BitRate: 250_000, PacketOverhead: 0.003}
}

// Payload returns the usable bytes per packet.
func (c RadioConfig) Payload() int {
	p := c.MaxPacket - c.HeaderBytes
	if p <= 0 {
		panic(fmt.Sprintf("netsim: header %dB leaves no payload in %dB packets", c.HeaderBytes, c.MaxPacket))
	}
	return p
}

// Packets returns the number of packets needed for size payload bytes.
// A zero-size message is still one (control) packet.
func (c RadioConfig) Packets(size int) int {
	if size <= 0 {
		return 1
	}
	p := c.Payload()
	return (size + p - 1) / p
}

// AirTime returns the channel time for transmitting npackets packets
// carrying size payload bytes in total.
func (c RadioConfig) AirTime(npackets, size int) Time {
	bytes := size + npackets*c.HeaderBytes
	return float64(npackets)*c.PacketOverhead + float64(bytes*8)/c.BitRate
}

// Message is a logical protocol message. Size is its wire size in payload
// bytes; Payload carries the in-memory content for the receiving handler
// (the simulator does not re-serialize content that Size already accounts
// for).
type Message struct {
	Kind    int
	Src     NodeID
	Dst     NodeID // BroadcastID for local broadcast
	Phase   string // accounting label
	Size    int    // payload bytes on the wire
	Payload any
}

// Accountant observes transmissions and receptions. The stats package
// provides the standard implementation.
type Accountant interface {
	OnTx(node NodeID, phase string, packets, bytes int)
	OnRx(node NodeID, phase string, packets, bytes int)
}

// Handler processes a message delivered to node `to`. A network has one
// handler for all nodes; protocols index their per-node state by `to`.
type Handler func(to NodeID, m Message)

// Network delivers messages between neighboring nodes over a broadcast
// medium, charging transmissions to an Accountant.
//
// Node events only read what the network shares — the dead flags, the
// downed links, the loss rates — and fault injection writes it between
// them: outside a run or in a coordinator event (Sim.Schedule).
type Network struct {
	Sim   *Sim
	Radio RadioConfig
	Dep   *topology.Deployment

	handler Handler
	acct    Accountant
	down    map[linkKey]bool
	dead    []bool

	// The loss model: a packet is lost when its lossDraw falls below the
	// rate of its directed link, linkLoss's entry or else lossRate.
	lossRate float64
	lossSeed int64
	linkLoss map[Link]float64
	tracer   Tracer

	// Reliable-unicast mode (see reliable.go).
	reliable  bool
	rcfg      ReliableConfig
	exhausted map[Link]int
	giveUp    func(m Message, attempts int, at Time)
	// msgSeq numbers every transmission per sender; trace events of one
	// logical message share its MsgID, which is what lets an audit match
	// each reception, drop or loss back to the transmission that caused
	// it, and the loss draw is keyed by it. The counters are per sender —
	// and the sender is packed into the id — so id assignment needs no
	// synchronization under sharding (each node's sends execute on its own
	// region's worker) and the id sequence is identical for every shard
	// count.
	msgSeq []int64
	// reg is the network's state per simulator region (netRegion).
	reg []netRegion

	// met holds nil-safe live instruments; the zero value disables them
	// at the cost of one branch per call site.
	met NetMetrics

	counters
}

// counters are the radio layer's public tallies. Node events bump their
// region's shadow copy (tally) and drain folds it in: coordinator events
// and callers between runs read exact values.
type counters struct {
	// Dropped counts unicast messages that could not be delivered
	// because the link was down or the receiver dead.
	Dropped int
	// Lost counts messages dropped by the probabilistic loss model.
	Lost int
	// Retx counts reliable-transport retransmission attempts.
	Retx int
	// AckTx counts acknowledgements transmitted by reliable receivers.
	AckTx int
	// Dups counts duplicate deliveries the reliable transport suppressed.
	Dups int
	// GiveUps counts reliable transfers that exhausted their
	// retransmission budget.
	GiveUps int
}

// netRegion is what one region's worker writes during a run: the
// delivery freelist (an object is acquired by the sender's worker and
// released to the receiver's, so no pool is shared), the trace events
// and counters it would otherwise hand to shared state, and the reliable
// transfers that gave up. drain folds the last three back.
type netRegion struct {
	free    []*delivery
	trace   []TraceEvent
	tally   counters
	giveUps []giveUp
}

// giveUp is one exhausted reliable transfer, buffered until drain.
type giveUp struct {
	at       Time
	m        Message
	attempts int
	logical  int64
}

// SetLossRate enables per-packet Bernoulli loss: each packet of a
// message is lost independently with the given probability, and a
// message is delivered only if all its packets survive (there is no
// link-layer ARQ; the paper's §IV-F recovery re-executes the query
// instead). Transmissions are still charged in full — the sender cannot
// know. A rate <= 0 disables it. Draws are deterministic for the seed.
func (n *Network) SetLossRate(rate float64, seed int64) {
	n.lossRate, n.lossSeed = max(rate, 0), seed
}

// lossDraw is the loss model's one draw: a uniform value in [0, 1) that
// is a pure function of the seed, the directed link, the transmission's
// message id and the packet's index in it (splitmix64 rounds). No stream
// is consumed, so outcomes do not depend on the order transmissions
// happen in — not across links, not across regions.
func lossDraw(seed int64, from, to NodeID, msgID int64, packet int) float64 {
	z := splitmix(uint64(seed))
	z = splitmix(z ^ uint64(uint32(from))<<32 ^ uint64(uint32(to)))
	z = splitmix(z ^ uint64(msgID))
	z = splitmix(z + uint64(packet))
	return float64(z>>11) / (1 << 53)
}

// splitmix is the splitmix64 generator: one step and its finalizer.
func splitmix(z uint64) uint64 {
	z += 0x9E3779B97F4A7C15
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	return z ^ z>>31
}

// lostPackets returns how many of the packets of transmission msgID on
// the directed link from→to the loss model removes.
func (n *Network) lostPackets(from, to NodeID, msgID int64, packets int) int {
	rate, ok := n.linkLoss[Link{From: from, To: to}]
	if !ok {
		rate = n.lossRate
	}
	lost := 0
	for i := 0; rate > 0 && i < packets; i++ {
		if lossDraw(n.lossSeed, from, to, msgID, i) < rate {
			lost++
		}
	}
	return lost
}

type linkKey struct{ a, b NodeID }

func mkLink(a, b NodeID) linkKey {
	if a > b {
		a, b = b, a
	}
	return linkKey{a, b}
}

// NewNetwork wires a deployment to a simulator.
func NewNetwork(sim *Sim, dep *topology.Deployment, radio RadioConfig, acct Accountant) *Network {
	_ = radio.Payload() // validate
	n := &Network{
		Sim:    sim,
		Radio:  radio,
		Dep:    dep,
		acct:   acct,
		down:   make(map[linkKey]bool),
		dead:   make([]bool, dep.N()),
		msgSeq: make([]int64, dep.N()),
	}
	n.BindSharding()
	return n
}

// Reset returns an idle network to the state NewNetwork left it in,
// keeping its storage (the delivery freelists) and its instruments: it
// revives dead nodes, raises downed links, clears both loss models,
// reliable transport and its exhausted links, zeroes the message-id
// counters and the public counters, and drops the handler, the give-up
// hook and the tracer (not the journal the tracer fed, which belongs to
// whoever attached it).
func (n *Network) Reset() {
	clear(n.dead)
	clear(n.down)
	clear(n.msgSeq)
	n.lossRate, n.lossSeed, n.linkLoss = 0, 0, nil
	n.reliable, n.rcfg, n.exhausted = false, ReliableConfig{}, nil
	n.handler, n.giveUp, n.tracer = nil, nil, nil
	n.counters = counters{}
}

// nextMsgID returns a fresh message id for a transmission by src: the
// sender packed with its per-sender counter. Zero never occurs.
func (n *Network) nextMsgID(src NodeID) int64 {
	n.msgSeq[src]++
	return (int64(src)+1)<<32 | n.msgSeq[src]
}

// SetHandler installs the message handler (nil: deliveries are accounted
// and dropped). Protocols clear it when a run ends, so an idle network
// holds on to nothing of the run that used it last.
func (n *Network) SetHandler(h Handler) { n.handler = h }

// TraceEvent is one radio-level event. Timestamps are true simulated
// times: a "tx" carries the send instant, an "rx" the instant after air
// time at which the receiver actually gets the message. "drop" marks a
// delivery that failed (link down, receiver dead — including a receiver
// that died while the message was in flight) and "lost" a message
// removed by the probabilistic loss model. All events of one logical
// message share its MsgID.
type TraceEvent struct {
	// Event is "tx", "rx", "drop" or "lost".
	Event string
	// At is the simulated time of the event in seconds.
	At Time
	// MsgID identifies the transmission this event belongs to.
	MsgID int64
	// Src and Dst are sender and receiver; on a broadcast "tx" Dst is
	// BroadcastID while the per-receiver outcome events carry the
	// concrete receiver.
	Src, Dst NodeID
	// Kind, Phase, Bytes mirror the message.
	Kind  int
	Phase string
	Bytes int
	// Packets is the packet count the radio model charges.
	Packets int
	// Expect is set on "tx" events only: the number of receivers the
	// medium attempts delivery to (link-OK neighbors for a broadcast, 1
	// for any unicast). Conservation audits check that every
	// transmission's outcome events (rx + drop + lost) add up to it.
	Expect int
	// Attempt is the reliable transport's transmission attempt (0 for
	// the first transmission; best-effort events are always 0).
	Attempt int
	// Logical groups all attempts and ACKs of one reliable transfer: it
	// is the MsgID of the first attempt. Zero on best-effort events.
	Logical int64
	// Dup marks a reception the reliable transport suppressed as a
	// duplicate (the handler did not run again).
	Dup bool
	// Ack marks events of link-layer acknowledgements.
	Ack bool
}

// Tracer observes every transmission (once) and per-receiver outcome.
type Tracer func(ev TraceEvent)

// SetTracer installs a radio observer; nil disables tracing. The
// zero-trace send/deliver path stays allocation-free. Events of a run
// are buffered per region and reach the tracer when the run ends.
func (n *Network) SetTracer(t Tracer) { n.tracer = t }

// trace records a best-effort radio event. `by` is the acting node — the
// sender on tx/lost/send-side drops, the receiver on rx/delivery drops.
func (n *Network) trace(event string, by NodeID, m Message, packets int, msgID int64, expect int) {
	if n.tracer == nil {
		return
	}
	n.emit(by, TraceEvent{
		Event: event, MsgID: msgID,
		Src: m.Src, Dst: m.Dst, Kind: m.Kind, Phase: m.Phase,
		Bytes: m.Size, Packets: packets, Expect: expect,
	})
}

// emit stamps ev with the acting node's clock and hands it to the
// tracer: through the node's region buffer inside a node event (the
// acting node's handler runs on that region's worker, so the append is
// race-free), directly otherwise.
func (n *Network) emit(by NodeID, ev TraceEvent) {
	ev.At = n.Sim.NodeNow(by)
	if n.Sim.running.Load() {
		r := &n.reg[n.Sim.region(by)]
		r.trace = append(r.trace, ev)
		return
	}
	n.tracer(ev)
}

// tally returns the counters an event acting for node by may bump: its
// region's shadow inside a node event (a plain field would race), the
// public fields otherwise.
func (n *Network) tally(by NodeID) *counters {
	if n.Sim.running.Load() {
		return &n.reg[n.Sim.region(by)].tally
	}
	return &n.counters
}

// countDrop and countLost record a failed delivery and a loss-model
// removal acting for node by.
func (n *Network) countDrop(by NodeID) {
	n.met.Drop.Inc()
	n.tally(by).Dropped++
}

func (n *Network) countLost(by NodeID) {
	n.met.Lost.Inc()
	n.tally(by).Lost++
}

// drain folds the regions' buffers back into the global view before a
// coordinator event and after a run: trace events flush through the tracer in region order (canonical
// journal ordering makes the flush order invisible), the counter shadows
// fold into the public fields, and the transfers that gave up reach
// ExhaustedLinks and the OnGiveUp hook in (t, sender, MsgID) order.
func (n *Network) drain() {
	var gs []giveUp
	for i := range n.reg {
		r := &n.reg[i]
		if n.tracer != nil {
			for _, ev := range r.trace {
				n.tracer(ev)
			}
		}
		clear(r.trace)
		r.trace = r.trace[:0]
		c, t := &n.counters, r.tally
		c.Dropped += t.Dropped
		c.Lost += t.Lost
		c.Retx += t.Retx
		c.AckTx += t.AckTx
		c.Dups += t.Dups
		r.tally = counters{}
		gs = append(gs, r.giveUps...)
		clear(r.giveUps)
		r.giveUps = r.giveUps[:0]
	}
	slices.SortFunc(gs, func(a, b giveUp) int {
		return cmp.Or(cmp.Compare(a.at, b.at), cmp.Compare(a.m.Src, b.m.Src), cmp.Compare(a.logical, b.logical))
	})
	for _, g := range gs {
		n.GiveUps++
		n.met.GiveUp.Inc()
		if n.exhausted == nil {
			n.exhausted = make(map[Link]int)
		}
		n.exhausted[Link{From: g.m.Src, To: g.m.Dst}]++
		if n.giveUp != nil {
			n.giveUp(g.m, g.attempts, g.at)
		}
	}
}

// SetAccountant replaces the transmission observer.
func (n *Network) SetAccountant(a Accountant) { n.acct = a }

// LinkDown forces the link between a and b to fail (both directions).
func (n *Network) LinkDown(a, b NodeID) { n.down[mkLink(a, b)] = true }

// LinkUp restores the link between a and b.
func (n *Network) LinkUp(a, b NodeID) { delete(n.down, mkLink(a, b)) }

// LinkOK reports whether a and b are neighbors with a live link.
func (n *Network) LinkOK(a, b NodeID) bool {
	if n.dead[a] || n.dead[b] {
		return false
	}
	if n.down[mkLink(a, b)] {
		return false
	}
	return n.Dep.IsNeighbor(a, b)
}

// KillNode takes node id offline entirely.
func (n *Network) KillNode(id NodeID) { n.dead[id] = true }

// ReviveNode brings node id back online.
func (n *Network) ReviveNode(id NodeID) { n.dead[id] = false }

// Alive reports whether node id is online.
func (n *Network) Alive(id NodeID) bool { return !n.dead[id] }

// Send transmits m. For unicast the receiver must be a live neighbor;
// otherwise the message is counted as transmitted (the sender cannot know)
// but dropped. For broadcast every live neighbor receives it. The
// transmission is charged to the source; delivery happens after air time.
func (n *Network) Send(m Message) {
	if n.dead[m.Src] {
		return
	}
	if n.reliable && m.Dst != BroadcastID {
		n.sendReliable(m)
		return
	}
	packets := n.Radio.Packets(m.Size)
	if n.acct != nil {
		n.acct.OnTx(m.Src, m.Phase, packets, m.Size)
	}
	n.met.Tx.Add(int64(packets))
	msgID := n.nextMsgID(m.Src)
	at := n.Sim.NodeNow(m.Src) + n.Radio.AirTime(packets, m.Size)
	if m.Dst == BroadcastID {
		if n.tracer != nil {
			expect := 0
			for _, v := range n.Dep.Neighbors[m.Src] {
				if n.LinkOK(m.Src, v) {
					expect++
				}
			}
			n.trace("tx", m.Src, m, packets, msgID, expect)
		}
		if n.lossRate == 0 && len(n.linkLoss) == 0 && len(n.down) == 0 {
			// Fast path: every v comes from the sender's neighbor list, no
			// links are down and nothing can be lost, so LinkOK reduces to
			// the receiver being alive — O(deg) instead of the O(deg²)
			// per-neighbor membership scan.
			for _, v := range n.Dep.Neighbors[m.Src] {
				if n.dead[v] {
					continue
				}
				n.deliver(m, v, packets, at, msgID)
			}
			return
		}
		for _, v := range n.Dep.Neighbors[m.Src] {
			if !n.LinkOK(m.Src, v) {
				continue
			}
			if n.lostPackets(m.Src, v, msgID, packets) > 0 {
				n.countLost(m.Src)
				mm := m
				mm.Dst = v
				n.trace("lost", m.Src, mm, packets, msgID, 0)
				continue
			}
			n.deliver(m, v, packets, at, msgID)
		}
		return
	}
	n.trace("tx", m.Src, m, packets, msgID, 1)
	if !n.LinkOK(m.Src, m.Dst) {
		n.countDrop(m.Src)
		n.trace("drop", m.Src, m, packets, msgID, 0)
		return
	}
	if n.lostPackets(m.Src, m.Dst, msgID, packets) > 0 {
		n.countLost(m.Src)
		n.trace("lost", m.Src, m, packets, msgID, 0)
		return
	}
	n.deliver(m, m.Dst, packets, at, msgID)
}

// BindSharding sizes the per-region state (delivery freelists, trace
// buffers, counter shadows, give-ups) for the simulator's regions and
// installs the network's drain hook. NewNetwork binds; call it again
// after Sim.EnableSharding.
func (n *Network) BindSharding() {
	n.reg = make([]netRegion, len(n.Sim.regions))
	n.Sim.drain = n.drain
	n.Sim.growNodes(n.N())
	n.checkLookahead()
}

// delivery is pooled in-flight message state. Binding run to the
// deliver method once per pool object lets Schedule take a plain func()
// without allocating a fresh closure per message.
type delivery struct {
	n       *Network
	m       Message
	packets int
	msgID   int64
	run     func()
}

func (n *Network) getDelivery(src NodeID) *delivery {
	free := &n.reg[n.Sim.region(src)].free
	if k := len(*free); k > 0 {
		d := (*free)[k-1]
		(*free)[k-1] = nil
		*free = (*free)[:k-1]
		return d
	}
	d := &delivery{n: n}
	d.run = d.deliver
	return d
}

// deliver fires at the scheduled delivery instant: reception accounting,
// the rx trace event and the handler all happen after air time, and a
// node that died while the message was in flight is charged nothing.
func (d *delivery) deliver() {
	n, m, packets, msgID := d.n, d.m, d.packets, d.msgID
	d.m = Message{} // release the payload reference
	to := m.Dst
	// This runs on the receiver's worker: the object goes to its pool.
	r := &n.reg[n.Sim.region(to)]
	r.free = append(r.free, d)
	if n.dead[to] {
		n.countDrop(to)
		n.trace("drop", to, m, packets, msgID, 0)
		return
	}
	if n.acct != nil {
		n.acct.OnRx(to, m.Phase, packets, m.Size)
	}
	n.met.Rx.Add(int64(packets))
	n.trace("rx", to, m, packets, msgID, 0)
	if n.handler != nil {
		n.handler(to, m)
	}
}

func (n *Network) deliver(m Message, to NodeID, packets int, at Time, msgID int64) {
	d := n.getDelivery(m.Src)
	d.m = m
	d.m.Dst = to
	d.packets = packets
	d.msgID = msgID
	n.Sim.ScheduleNode(m.Src, to, at, d.run)
}

// N returns the node count including the base station.
func (n *Network) N() int { return n.Dep.N() }

// LiveNeighbors returns the neighbor lists restricted to live links and
// live nodes — the graph a repaired routing tree forms over.
func (n *Network) LiveNeighbors() [][]NodeID {
	out := make([][]NodeID, n.N())
	for i := range out {
		if n.dead[i] {
			continue
		}
		for _, v := range n.Dep.Neighbors[i] {
			if n.LinkOK(NodeID(i), v) {
				out[i] = append(out[i], v)
			}
		}
	}
	return out
}

// MaxAirTime returns an upper bound on the air time of any single message
// of up to size bytes; protocol schedulers use it to size slots.
func (n *Network) MaxAirTime(size int) Time {
	p := n.Radio.Packets(size)
	return n.Radio.AirTime(p, size) + 1e-6
}

// SlotFor returns a conservative slot duration for forwarding size bytes,
// rounded up to a millisecond multiple for readability of traces. With
// reliable transport enabled the slot covers the worst-case transfer —
// every retransmission attempt, its ACK wait and backoff — so slotted
// protocol schedules stay valid under loss.
func (n *Network) SlotFor(size int) Time {
	t := n.MaxAirTime(size)
	if n.reliable {
		ackAir := n.ackAir() + 1e-6
		total := Time(0)
		for a := 0; a <= n.rcfg.MaxRetries; a++ {
			total += t + ackAir + n.rcfg.backoff(a)
		}
		t = total
	}
	return math.Ceil(t*1000) / 1000
}
