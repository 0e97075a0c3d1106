package netsim

import (
	"fmt"
	"log"
	"math"
	"math/rand"
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
type Network struct {
	Sim   *Sim
	Radio RadioConfig
	Dep   *topology.Deployment

	handler Handler
	acct    Accountant
	down    map[linkKey]bool
	dead    []bool

	lossRate float64
	lossRNG  *rand.Rand
	linkLoss map[Link]*linkLossState
	tracer   Tracer

	// Reliable-unicast mode (see reliable.go).
	reliable  bool
	rcfg      ReliableConfig
	exhausted map[Link]int
	giveUp    func(m Message, attempts int)
	// msgSeq numbers transmissions per sender; trace events of one
	// logical message share its MsgID, which is what lets an audit match
	// each reception, drop or loss back to the transmission that caused
	// it. The counters are per sender — and the sender is packed into
	// the id — so id assignment needs no synchronization under sharding
	// (each node's sends execute on its own region's worker) and the id
	// sequence is identical for every shard count.
	msgSeq []int64
	// free is the delivery freelist: in-flight message state is pooled
	// so that the send/deliver path performs zero allocations per event
	// once warm (guarded by TestSendDeliverZeroAllocs).
	free []*delivery
	// freeR replaces free under sharded execution: one freelist per
	// region, so pool objects are acquired by the sender's worker and
	// released by the receiver's without shared mutable state.
	freeR [][]*delivery
	// traceR replaces synchronous tracer calls under sharded execution:
	// each region's worker appends its radio events lock-free to its own
	// buffer, flushed through the tracer at drain time (shardDrain). The
	// canonical journal order in internal/trace makes the flush order
	// invisible to the recorded journal.
	traceR [][]TraceEvent
	// dropR/lostR shadow the Dropped/Lost fields per region during a
	// sharded run (plain fields would race); folded back at drain.
	dropR, lostR []int64

	// met holds nil-safe live instruments; the zero value disables them
	// at the cost of one branch per call site.
	met NetMetrics

	// fellBack records that this network reverted a sharded simulator
	// to the classic engine: it dedups the log line (the counter still
	// counts every occurrence) and bars Reset, since the engine is no
	// longer the one the network was built on.
	fellBack bool

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

// SetLossRate enables per-packet Bernoulli loss: each packet of a
// message is lost independently with the given probability, and a
// message is delivered only if all its packets survive (there is no
// link-layer ARQ; the paper's §IV-F recovery re-executes the query
// instead). Transmissions are still charged in full — the sender cannot
// know. Loss draws are deterministic for the seed.
func (n *Network) SetLossRate(rate float64, seed int64) {
	if rate <= 0 {
		n.lossRate, n.lossRNG = 0, nil
		return
	}
	// The loss model draws from one RNG stream; fall back to the
	// classic engine so draws stay ordered and deterministic.
	n.fallbackFromSharding("the loss model")
	n.lossRate = rate
	n.lossRNG = rand.New(rand.NewSource(seed))
}

// fallbackFromSharding reverts the simulator to the classic single-heap
// engine. Every feature whose hot path carries cross-node mutable state
// or a single RNG stream (reliable transport, the loss models, churn)
// calls it on enable, so the fallback DESIGN.md promises holds
// regardless of the order features and sharding were configured in.
// Tracing and live metrics no longer fall back: they buffer or shadow
// per region and fold at drain. The reversion is never silent: it logs
// once per network and counts every occurrence in
// sensjoin_netsim_shard_fallback_total.
func (n *Network) fallbackFromSharding(feature string) {
	if n.Sim.Sharded() {
		n.Sim.DisableSharding()
		n.BindSharding()
		n.noteShardFallback(feature)
	}
}

// noteShardFallback records one sharded→classic reversion.
func (n *Network) noteShardFallback(feature string) {
	n.met.ShardFallback.Inc()
	if !n.fellBack {
		n.fellBack = true
		log.Printf("netsim: %s requires the classic engine; sharded simulation disabled (sensjoin_netsim_shard_fallback_total counts these)", feature)
	}
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
	return &Network{
		Sim:    sim,
		Radio:  radio,
		Dep:    dep,
		acct:   acct,
		down:   make(map[linkKey]bool),
		dead:   make([]bool, dep.N()),
		msgSeq: make([]int64, dep.N()),
	}
}

// Reset returns an idle, fault-free network to the state NewNetwork left
// it in, keeping its storage (the delivery freelists) and its
// instruments: message-id counters and the public failure counters go to
// zero, the handler and give-up hook are dropped. It reports false and
// changes nothing when the network is not what a new one would be in a
// way that cannot be undone by zeroing — a dead node or a downed link, a
// loss model, reliable transport, a tracer still attached, a sharded
// engine that fell back to the classic one.
func (n *Network) Reset() bool {
	if n.reliable || n.lossRNG != nil || len(n.linkLoss) > 0 || len(n.down) > 0 ||
		n.tracer != nil || n.fellBack || slices.Contains(n.dead, true) {
		return false
	}
	clear(n.msgSeq)
	n.handler, n.giveUp, n.exhausted = nil, nil, nil
	n.Dropped, n.Lost, n.Retx, n.AckTx, n.Dups, n.GiveUps = 0, 0, 0, 0, 0, 0
	return true
}

// nextMsgID returns a fresh message id for a transmission by src: the
// sender packed with its per-sender counter. Zero never occurs, so zero
// still means "untraced".
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
// zero-trace send/deliver path stays allocation-free. Tracing composes
// with the sharded engine: events are buffered per region during a run
// and flushed through the tracer at drain time.
func (n *Network) SetTracer(t Tracer) { n.tracer = t }

// trace records a radio event. `by` is the acting node — the sender on
// tx/lost/send-side drops, the receiver on rx/delivery drops — whose
// clock stamps the event and whose region buffers it during a sharded
// run (the acting node's handler executes on that region's worker, so
// the append is race-free).
func (n *Network) trace(event string, by NodeID, m Message, packets int, msgID int64, expect int) {
	if n.tracer == nil {
		return
	}
	ev := TraceEvent{
		Event: event, At: n.Sim.NodeNow(by), MsgID: msgID,
		Src: m.Src, Dst: m.Dst, Kind: m.Kind, Phase: m.Phase,
		Bytes: m.Size, Packets: packets, Expect: expect,
	}
	if sh := n.Sim.sh; sh != nil && sh.running.Load() {
		reg := sh.regionOf[by]
		n.traceR[reg] = append(n.traceR[reg], ev)
		return
	}
	n.tracer(ev)
}

// countDrop and countLost bump the public failure counters, through the
// per-region shadows while a sharded run is in flight.
func (n *Network) countDrop(by NodeID) {
	n.met.Drop.Inc()
	if sh := n.Sim.sh; sh != nil && sh.running.Load() {
		n.dropR[sh.regionOf[by]]++
		return
	}
	n.Dropped++
}

func (n *Network) countLost(by NodeID) {
	n.met.Lost.Inc()
	if sh := n.Sim.sh; sh != nil && sh.running.Load() {
		n.lostR[sh.regionOf[by]]++
		return
	}
	n.Lost++
}

// shardDrain folds per-region buffers back into the global view: trace
// events flush through the tracer in region order (canonical journal
// ordering makes the flush order invisible) and the shadow failure
// counters fold into the public fields. The engine calls it
// single-threaded after every sharded run and on DisableSharding.
func (n *Network) shardDrain() {
	for ri := range n.traceR {
		buf := n.traceR[ri]
		for i := range buf {
			if n.tracer != nil {
				n.tracer(buf[i])
			}
			buf[i] = TraceEvent{}
		}
		n.traceR[ri] = buf[:0]
	}
	for ri := range n.dropR {
		n.Dropped += int(n.dropR[ri])
		n.dropR[ri] = 0
	}
	for ri := range n.lostR {
		n.Lost += int(n.lostR[ri])
		n.lostR[ri] = 0
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
	// Message ids exist for the tracer; untraced runs skip the counter so
	// the send path stays branch-cheap.
	var msgID int64
	if n.tracer != nil {
		msgID = n.nextMsgID(m.Src)
	}
	at := n.sendTime(m.Src) + n.Radio.AirTime(packets, m.Size)
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
		if n.lossRNG == nil && len(n.linkLoss) == 0 && len(n.down) == 0 {
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
			if n.lostOn(m.Src, v, packets) {
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
	if n.lostOn(m.Src, m.Dst, packets) {
		n.countLost(m.Src)
		n.trace("lost", m.Src, m, packets, msgID, 0)
		return
	}
	n.deliver(m, m.Dst, packets, at, msgID)
}

// sendTime returns the sender's current clock: its region clock during a
// sharded run (written only by the region's own worker), the global
// clock otherwise.
func (n *Network) sendTime(src NodeID) Time {
	if sh := n.Sim.sh; sh != nil && sh.running.Load() {
		return sh.regions[sh.regionOf[src]].now
	}
	return n.Sim.now
}

// BindSharding sizes the per-region state (delivery freelists, trace
// buffers, shadow counters) for the simulator's current sharding — or
// reverts to the shared state when sharding is off — and installs the
// network's drain hook. It refuses configurations whose hot path
// carries cross-node mutable state; core.Runner guarantees those
// features disable sharding first.
func (n *Network) BindSharding() {
	sh := n.Sim.sh
	if sh == nil {
		n.freeR = nil
		n.traceR = nil
		n.dropR, n.lostR = nil, nil
		return
	}
	if n.reliable || n.lossRNG != nil || n.linkLoss != nil {
		// A feature with cross-node mutable hot-path state is already on:
		// fall back to the classic engine deterministically instead of
		// refusing — the promise is that fallback works regardless of the
		// order features and sharding were enabled in.
		n.Sim.DisableSharding()
		n.freeR = nil
		n.noteShardFallback(shardBlocker(n))
		return
	}
	n.freeR = make([][]*delivery, len(sh.regions))
	n.traceR = make([][]TraceEvent, len(sh.regions))
	n.dropR = make([]int64, len(sh.regions))
	n.lostR = make([]int64, len(sh.regions))
	sh.drain = n.shardDrain
}

// shardBlocker names the already-enabled feature that keeps the network
// on the classic engine, for the fallback log line.
func shardBlocker(n *Network) string {
	switch {
	case n.reliable:
		return "reliable transport"
	case n.lossRNG != nil:
		return "the loss model"
	default:
		return "per-link loss"
	}
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
	free := &n.free
	if n.freeR != nil {
		free = &n.freeR[n.Sim.sh.regionOf[src]]
	}
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
	if n.freeR != nil {
		// Sharded: this runs on the receiver's worker, so the object goes
		// to the receiver's region pool.
		reg := n.Sim.sh.regionOf[m.Dst]
		n.freeR[reg] = append(n.freeR[reg], d)
	} else {
		n.free = append(n.free, d)
	}
	to := m.Dst
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
		ackAir := n.Radio.AirTime(n.Radio.Packets(n.rcfg.AckBytes), n.rcfg.AckBytes) + 1e-6
		total := Time(0)
		for a := 0; a <= n.rcfg.MaxRetries; a++ {
			total += t + ackAir + n.rcfg.backoff(a)
		}
		t = total
	}
	return math.Ceil(t*1000) / 1000
}
