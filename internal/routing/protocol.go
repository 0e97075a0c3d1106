package routing

import (
	"sensjoin/internal/netsim"
	"sensjoin/internal/topology"
)

// PhaseBeacon labels beacon traffic in the accounting; experiments exclude
// it when comparing join methods, since tree maintenance is common to all.
const PhaseBeacon = "tree-beacon"

// beaconKind tags beacon messages on the wire.
const beaconKind = 1

// beaconSize is the wire size of a beacon: round number (2B) and hop
// count (2B).
const beaconSize = 4

type beaconPayload struct {
	round int
	hops  int
}

// Protocol is a CTP-style beaconing protocol: each round the base station
// floods a beacon; every node adopts the neighbor announcing the smallest
// hop count as its parent (ties toward the lower id) and rebroadcasts its
// own hop count once per round. Because state is recomputed every round,
// the tree heals itself after link or node failures within one round.
type Protocol struct {
	Net *netsim.Network
	// Interval is the time between beacon rounds in seconds.
	Interval float64

	round    int
	hops     []int
	parent   []topology.NodeID
	sent     []int // freshest round this node has seen
	sentHops []int // hop count last announced this round
}

// NewProtocol attaches a beacon protocol to net. Call Start to begin
// beaconing; handlers are installed immediately.
func NewProtocol(net *netsim.Network, interval float64) *Protocol {
	n := net.N()
	p := &Protocol{
		Net:      net,
		Interval: interval,
		hops:     make([]int, n),
		parent:   make([]topology.NodeID, n),
		sent:     make([]int, n),
		sentHops: make([]int, n),
	}
	for i := range p.hops {
		p.hops[i] = -1
		p.parent[i] = NoParent
		p.sent[i] = -1
		p.sentHops[i] = -1
	}
	p.Reinstall()
	return p
}

// Reinstall re-registers the protocol's message handler. Query engines
// take over the network's handler for the duration of an execution
// (§III: queries and routing share the single radio stack); call
// Reinstall before the next beacon round after running a query.
func (p *Protocol) Reinstall() { p.Net.SetHandler(p.handle) }

// Start schedules the first beacon round and every following one.
func (p *Protocol) Start() {
	var tick func()
	tick = func() {
		p.RunRound()
		p.Net.Sim.After(p.Interval, tick)
	}
	p.Net.Sim.After(0, tick)
}

// RunRound initiates a single beacon round from the base station. The
// flood itself proceeds via message events.
func (p *Protocol) RunRound() {
	p.round++
	p.hops[topology.BaseStation] = 0
	p.sent[topology.BaseStation] = p.round
	p.Net.Send(netsim.Message{
		Kind:  beaconKind,
		Src:   topology.BaseStation,
		Dst:   netsim.BroadcastID,
		Phase: PhaseBeacon,
		Size:  beaconSize,
		Payload: beaconPayload{
			round: p.round,
			hops:  0,
		},
	})
}

func (p *Protocol) handle(id topology.NodeID, m netsim.Message) {
	if m.Kind != beaconKind {
		return
	}
	b, ok := m.Payload.(beaconPayload)
	if !ok {
		return
	}
	fresh := b.round > roundOf(p, id)
	better := b.hops+1 < p.hops[id] || p.hops[id] < 0
	sameButLower := b.hops+1 == p.hops[id] && m.Src < p.parent[id]
	if fresh {
		// New round: forget last round's distance and adopt.
		p.hops[id] = b.hops + 1
		p.parent[id] = m.Src
		p.setRound(id, b.round)
		p.rebroadcast(id, b.round)
		return
	}
	if b.round != roundOf(p, id) {
		return
	}
	if better {
		// A strictly shorter path must propagate, or descendants keep
		// routing over the stale longer one until the next round. Each
		// rebroadcast announces a strictly lower hop count than the
		// node's previous announcement (sentHops), so the per-round
		// rebroadcast count is bounded by the node's initial distance.
		p.hops[id] = b.hops + 1
		p.parent[id] = m.Src
		p.rebroadcast(id, b.round)
		return
	}
	if sameButLower {
		// Deterministic tie-break toward the lower id. The hop count is
		// unchanged, so neighbors learn nothing new: adopt silently
		// instead of re-flooding the same announcement.
		p.parent[id] = m.Src
	}
}

// roundTrack stores the freshest round seen per node inside sent when the
// node has rebroadcast, plus a shadow array for rounds merely seen.
// To keep the struct small we reuse sent for both purposes: a node
// rebroadcasts only on strict improvement and floods converge in a
// handful of steps at 50 m range.
func roundOf(p *Protocol, id topology.NodeID) int { return p.sent[id] }

func (p *Protocol) setRound(id topology.NodeID, r int) { p.sent[id] = r }

func (p *Protocol) rebroadcast(id topology.NodeID, round int) {
	p.sentHops[id] = p.hops[id]
	p.Net.Send(netsim.Message{
		Kind:  beaconKind,
		Src:   id,
		Dst:   netsim.BroadcastID,
		Phase: PhaseBeacon,
		Size:  beaconSize,
		Payload: beaconPayload{
			round: round,
			hops:  p.hops[id],
		},
	})
}

// Snapshot returns the current tree. Nodes that have not heard a beacon
// in the latest round keep their previous parent; nodes that never heard
// one are unreachable.
func (p *Protocol) Snapshot() (*Tree, error) {
	return FromParents(p.parent, topology.BaseStation)
}
