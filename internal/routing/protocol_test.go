package routing

import (
	"testing"

	"sensjoin/internal/geom"
	"sensjoin/internal/netsim"
	"sensjoin/internal/topology"
)

func protoSetup(t *testing.T, seed int64) (*netsim.Sim, *netsim.Network, *topology.Deployment) {
	t.Helper()
	d, err := topology.Generate(topology.Config{
		Nodes: 150, Area: geom.Square(350), Range: 50, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	sim := netsim.NewSim()
	net := netsim.NewNetwork(sim, d, netsim.DefaultRadio(), nil)
	return sim, net, d
}

func TestProtocolConvergesToMinHop(t *testing.T) {
	sim, net, d := protoSetup(t, 1)
	p := NewProtocol(net, 10)
	p.RunRound()
	sim.Run()
	got, err := p.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	want := BuildTree(d.Neighbors, topology.BaseStation)
	if got.ReachableCount() != d.N() {
		t.Fatalf("protocol tree reaches %d of %d", got.ReachableCount(), d.N())
	}
	for i := range got.Depth {
		if got.Depth[i] != want.Depth[i] {
			t.Fatalf("node %d: protocol depth %d, BFS depth %d", i, got.Depth[i], want.Depth[i])
		}
	}
	if err := got.Validate(d.Neighbors); err != nil {
		t.Fatal(err)
	}
}

func TestProtocolRepairsAfterLinkFailure(t *testing.T) {
	sim, net, d := protoSetup(t, 2)
	p := NewProtocol(net, 10)
	p.RunRound()
	sim.Run()
	tr, err := p.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	// Cut the link from some depth-2 node to its parent; node must find
	// another route on the next round (or stay unreachable if none).
	var victim topology.NodeID = -1
	for i := 1; i < d.N(); i++ {
		if tr.Depth[i] == 2 && len(d.Neighbors[i]) > 1 {
			victim = topology.NodeID(i)
			break
		}
	}
	if victim < 0 {
		t.Skip("no suitable victim in this topology")
	}
	net.LinkDown(victim, tr.Parent[victim])
	p.RunRound()
	sim.Run()
	tr2, err := p.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if tr2.Reachable(victim) && tr2.Parent[victim] == tr.Parent[victim] {
		t.Fatal("victim still routes through the downed link")
	}
	if err := tr2.Validate(nil); err != nil {
		t.Fatal(err)
	}
}

func TestProtocolHealsAfterNodeDeath(t *testing.T) {
	sim, net, d := protoSetup(t, 3)
	p := NewProtocol(net, 10)
	p.RunRound()
	sim.Run()
	tr, _ := p.Snapshot()
	// Kill a depth-1 node with children; its subtree must re-attach.
	var victim topology.NodeID = -1
	for i := 1; i < d.N(); i++ {
		if tr.Depth[i] == 1 && len(tr.Children[i]) > 0 {
			victim = topology.NodeID(i)
			break
		}
	}
	if victim < 0 {
		t.Skip("no depth-1 node with children")
	}
	orphans := tr.Children[victim]
	net.KillNode(victim)
	p.RunRound()
	sim.Run()
	tr2, _ := p.Snapshot()
	for _, o := range orphans {
		if tr2.Reachable(o) && tr2.Parent[o] == victim {
			t.Fatalf("orphan %d still routed through dead node", o)
		}
	}
}

func TestProtocolBeaconAccounting(t *testing.T) {
	d, err := topology.Generate(topology.Config{
		Nodes: 60, Area: geom.Square(250), Range: 50, Seed: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	sim := netsim.NewSim()
	acct := &countingAcct{}
	net := netsim.NewNetwork(sim, d, netsim.DefaultRadio(), acct)
	p := NewProtocol(net, 10)
	p.RunRound()
	sim.Run()
	if acct.phase != PhaseBeacon {
		t.Fatalf("beacons accounted under %q, want %q", acct.phase, PhaseBeacon)
	}
	// Every node rebroadcasts at least once; improvements may add more.
	if acct.txPackets < int64(d.N()) {
		t.Fatalf("only %d beacon transmissions for %d nodes", acct.txPackets, d.N())
	}
}

type countingAcct struct {
	txPackets int64
	phase     string
}

func (a *countingAcct) Charge(side netsim.Side, n netsim.NodeID, phase string, p, b int) {
	if side == netsim.SideTx {
		a.txPackets += int64(p)
		a.phase = phase
	}
}

func TestProtocolHealedTreeMatchesBFS(t *testing.T) {
	// After failures, the next round's tree must match BFS hop counts
	// over the live links: same-round improvements have to propagate, or
	// descendants keep the stale longer path until another round.
	sim, net, d := protoSetup(t, 6)
	p := NewProtocol(net, 10)
	p.RunRound()
	sim.Run()
	tr, err := p.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	// Cut every depth-1 node's link to the base station except one, so
	// large subtrees must re-route through a single corridor.
	kept := false
	for i := 1; i < d.N(); i++ {
		if tr.Depth[i] == 1 {
			if !kept {
				kept = true
				continue
			}
			net.LinkDown(topology.NodeID(i), topology.BaseStation)
		}
	}
	p.RunRound()
	sim.Run()
	healed, err := p.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	want := BuildTree(net.LiveNeighbors(), topology.BaseStation)
	for i := range healed.Depth {
		if want.Reachable(topology.NodeID(i)) != healed.Reachable(topology.NodeID(i)) {
			t.Fatalf("node %d: reachability differs from BFS over live links", i)
		}
		if want.Reachable(topology.NodeID(i)) && healed.Depth[i] != want.Depth[i] {
			t.Fatalf("node %d: healed depth %d, BFS depth %d", i, healed.Depth[i], want.Depth[i])
		}
	}
}

func TestProtocolRebroadcastsBounded(t *testing.T) {
	// Per round, a node rebroadcasts only on strict improvement: every
	// announcement carries a strictly lower hop count than the node's
	// previous one, which bounds the per-node beacon count by the node's
	// initial distance — and in particular rules out re-flooding on
	// tie-break parent changes.
	sim, net, _ := protoSetup(t, 7)
	announced := map[netsim.NodeID][]int{}
	p := NewProtocol(net, 10)
	net.SetTracer(func(ev netsim.TraceEvent) {
		if ev.Event == netsim.ActTx && ev.Phase == PhaseBeacon {
			announced[ev.Src] = append(announced[ev.Src], p.hops[ev.Src])
		}
	})
	p.RunRound()
	sim.Run()
	for id, hops := range announced {
		for i := 1; i < len(hops); i++ {
			if hops[i] >= hops[i-1] {
				t.Fatalf("node %d announced hop counts %v: not strictly decreasing", id, hops)
			}
		}
	}
}

func TestProtocolStartSchedulesRounds(t *testing.T) {
	sim, net, _ := protoSetup(t, 5)
	p := NewProtocol(net, 10)
	p.Start()
	sim.RunUntil(25)
	if p.round < 3 {
		t.Fatalf("after 25 s with 10 s interval, rounds = %d, want >= 3", p.round)
	}
}
