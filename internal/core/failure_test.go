package core

import (
	"fmt"
	"testing"

	"sensjoin/internal/field"
	"sensjoin/internal/netsim"
	"sensjoin/internal/routing"
	"sensjoin/internal/topology"
	"sensjoin/internal/trace"
)

// failLink finds a link whose loss affects the execution: the tree edge
// above a node with a reasonably large subtree.
func failLink(r *Runner) (child, parent topology.NodeID) {
	best := topology.NodeID(-1)
	bestDesc := -1
	for i := 1; i < r.Dep.N(); i++ {
		id := topology.NodeID(i)
		if r.Tree.Depth[id] >= 2 && r.Tree.Descendants[id] > bestDesc {
			best, bestDesc = id, r.Tree.Descendants[id]
		}
	}
	return best, r.Tree.Parent[best]
}

func TestLinkFailureDetected(t *testing.T) {
	for _, m := range []Method{External{}, NewSENSJoin()} {
		r := testRunner(t, 150, 71)
		child, parent := failLink(r)
		r.Net.LinkDown(child, parent)
		res, err := r.Run(qBand(0.5), m, 0)
		if err != nil {
			t.Fatal(err)
		}
		if res.Complete {
			t.Fatalf("%s: lost subtree of %d nodes but result claims complete",
				m.Name(), r.Tree.Descendants[child]+1)
		}
	}
}

// TestRecoveryReexecutesAfterRepair: without reliable transport a severed
// tree edge leaves the round incomplete, and WithRecovery rebuilds the
// tree and re-runs it. A QueryGroup cluster is a round like a lone query:
// every member ends complete and oracle-exact after the same two attempts
// the lone query takes.
func TestRecoveryReexecutesAfterRepair(t *testing.T) {
	for _, lane := range roundSpellings() {
		t.Run(lane.name, func(t *testing.T) {
			r := testRunner(t, 150, 73)
			child, parent := failLink(r)
			r.Net.LinkDown(child, parent)
			srcs := []string{qBand(0.5), qBand(0.6)}[:lane.members]
			truths := groundTruths(t, r, srcs, 0)
			results, err := lane.run(r, srcs, WithRecovery(3))
			if err != nil {
				t.Fatal(err)
			}
			for j, res := range results {
				if res.Attempts != 2 {
					t.Fatalf("member %d: Attempts = %d, want 2", j, res.Attempts)
				}
				if !res.Complete {
					t.Fatalf("member %d: still incomplete after the rebuild (reason %q)", j, res.IncompleteReason)
				}
				sameTable(t, truths[j], res, fmt.Sprintf("recovered member %d", j))
			}
		})
	}
}

func TestRecoveryGivesUpWhenPartitioned(t *testing.T) {
	r := testRunner(t, 100, 79)
	// Kill every neighbor link of some deep node: it becomes unreachable
	// and no repair can help.
	var victim topology.NodeID = -1
	for i := 1; i < r.Dep.N(); i++ {
		if r.Tree.Depth[i] >= 2 && r.Tree.Descendants[i] == 0 {
			victim = topology.NodeID(i)
			break
		}
	}
	if victim < 0 {
		t.Skip("no leaf victim found")
	}
	for _, nb := range r.Dep.Neighbors[victim] {
		r.Net.LinkDown(victim, nb)
	}
	res, err := r.Run(qBand(0.5), NewSENSJoin(), 0, WithRecovery(2))
	if err != nil {
		t.Fatal(err)
	}
	attempts := res.Attempts
	if attempts != 2 {
		t.Fatalf("attempts = %d, want the maximum 2", attempts)
	}
	// The partitioned node is excluded by the repaired tree, so the
	// final attempt is complete w.r.t. reachable nodes or reported
	// incomplete; either way the run must terminate (no infinite loop).
	_ = res
}

func TestNodeDeathDuringExecution(t *testing.T) {
	r := testRunner(t, 120, 83)
	// Pick a relay node and kill it mid-execution (after phase A began).
	var victim topology.NodeID = -1
	for i := 1; i < r.Dep.N(); i++ {
		if r.Tree.Depth[i] == 1 && r.Tree.Descendants[i] > 5 {
			victim = topology.NodeID(i)
			break
		}
	}
	if victim < 0 {
		t.Skip("no suitable relay")
	}
	r.Sim.Schedule(0.5, func() { r.Net.KillNode(victim) })
	res, err := r.Run(qBand(0.5), NewSENSJoin(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Complete {
		t.Fatal("mid-execution node death must surface as incomplete")
	}
	// Repair and re-run; the dead node stays dead, so completeness is
	// judged against the surviving members.
	r.Net.ReviveNode(victim)
	r.RebuildTree()
	res2, err := r.Run(qBand(0.5), NewSENSJoin(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if !res2.Complete {
		t.Fatal("re-execution after revival should be complete")
	}
}

// The runner's one rebuild steers around a link whose reliable transfers
// gave up, consumes that record, and trusts the link again afterwards.
func TestRebuildTreeSteersAroundExhaustedLinks(t *testing.T) {
	r := testRunner(t, 150, 73)
	r.Net.EnableReliable(netsim.ReliableConfig{})
	var child, parent topology.NodeID = -1, -1
	for i := 1; i < r.Dep.N() && child < 0; i++ {
		id := topology.NodeID(i)
		for _, nb := range r.Dep.Neighbors[id] {
			if p := r.Tree.Parent[id]; p != routing.NoParent && nb != p && r.Tree.Depth[nb] == r.Tree.Depth[p] {
				child, parent = id, p
			}
		}
	}
	if child < 0 {
		t.Fatal("no tree edge with an equal-depth alternative")
	}
	r.Net.SetLinkLossRate(child, parent, 1)
	r.Net.SetHandler(func(topology.NodeID, netsim.Message) {})
	r.Sim.ScheduleNode(child, child, r.Sim.Now(), func() {
		r.Net.Send(netsim.Message{Kind: 1, Src: child, Dst: parent, Phase: "probe", Size: 8})
	})
	r.Sim.Run()
	r.Net.SetHandler(nil)
	if len(r.Net.ExhaustedLinks()) == 0 {
		t.Fatal("a fully jammed link did not exhaust the transfer")
	}
	r.RebuildTree()
	if r.Tree.Parent[child] == parent {
		t.Fatalf("rebuild kept %d under %d across the exhausted link", child, parent)
	}
	if len(r.Net.ExhaustedLinks()) != 0 {
		t.Fatal("rebuild did not consume the exhaustion record")
	}
	r.RebuildTree()
	if r.Tree.Parent[child] != parent {
		t.Fatalf("second rebuild still avoids the link: parent %d, want %d", r.Tree.Parent[child], parent)
	}
}

// lineRunner builds a path topology: base station at one end, nodes
// spaced 40 m apart with 50 m range, so the tree is a single chain and
// Treecut behaviour is exactly predictable.
func lineRunner(t *testing.T, n int) *Runner {
	t.Helper()
	return runnerOn(topology.Line(n, 40, 50))
}

// runnerOn wraps a hand-built deployment (a line, a star, a fan), which
// a SetupConfig cannot describe, with the default radio and the
// environment of seed 5.
func runnerOn(dep *topology.Deployment) *Runner {
	return NewRunnerFromSetup(dep, field.StandardEnvironment(dep.Area, 5),
		routing.BuildTree(dep.Neighbors, topology.BaseStation), SetupConfig{})
}

func TestTreecutOnLineTopology(t *testing.T) {
	// Query ships 4 attributes = 8 bytes per tuple; Dmax = 30. On a
	// chain (leaf = farthest node) the cut nodes accumulate 8, 16, 24
	// bytes; the node seeing 32 bytes becomes the proxy. So exactly 3
	// tuples ride each Treecut chain and deeper nodes exit the query:
	// they must never transmit in the filter or final phases.
	r := lineRunner(t, 12)
	src := qBand(10) // everything joins: every tuple must reach the BS
	x, err := execSQL(r, src, 0)
	if err != nil {
		t.Fatal(err)
	}
	truth, err := GroundTruth(x)
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.Run(src, NewSENSJoin(), 0)
	if err != nil {
		t.Fatal(err)
	}
	sameTable(t, truth, res, "sens-line")

	// The three deepest nodes (12, 11, 10) are cut: each sends exactly
	// one phase-A message and nothing afterwards.
	n := r.Dep.N() - 1
	for _, id := range []topology.NodeID{topology.NodeID(n), topology.NodeID(n - 1), topology.NodeID(n - 2)} {
		if p, _ := r.Stats.NodeTx(id, PhaseJACollect); p != 1 {
			t.Fatalf("cut node %d sent %d collection packets, want 1", id, p)
		}
		if p, _ := r.Stats.NodeTx(id, PhaseFilterDissem); p != 0 {
			t.Fatalf("cut node %d forwarded the filter", id)
		}
		if p, _ := r.Stats.NodeTx(id, PhaseFinalCollect); p != 0 {
			t.Fatalf("cut node %d transmitted in the final phase", id)
		}
	}
	// The proxy (n-3) answers for its cut descendants in the final phase.
	proxy := topology.NodeID(n - 3)
	if p, _ := r.Stats.NodeTx(proxy, PhaseFinalCollect); p == 0 {
		t.Fatalf("proxy %d sent nothing in the final phase", proxy)
	}
}

// A Treecut message that reaches a cut node after the node's deadline is
// left out: the node has already sent its own message, and whoever
// gathers the Treecut tuples above it never sees the late ones. On the
// line of TestTreecutOnLineTopology, node 9 proxies the tuples of 12, 11
// and 10. Here the link 12-11 is down when node 12 sends, and its
// retransmission is held back past node 11's deadline; 11, 10 and 9 are
// then cut, and node 8 gathers their three tuples, not node 12's.
func TestLateTreecutMessageIsLeftOut(t *testing.T) {
	r := lineRunner(t, 12)
	src := qBand(10)
	r.Net.EnableReliable(netsim.ReliableConfig{}) // sizes the slots below as the run will
	x, err := execSQL(r, src, 0)
	if err != nil {
		t.Fatal(err)
	}
	p := buildPlan(x)
	// Node 12 sends at the round's start and node 11 at start + slotA; a
	// slot covers every retransmission the round started with. Once the
	// first attempt is out, the backoff grows past the slot, so the second
	// retransmission goes out at about start + 2·slotA, after the link is
	// back up.
	slotA, _ := sensSlots(x, p, 1)
	rec := trace.New()
	start := r.Sim.Now()
	r.Net.LinkDown(12, 11)
	r.Sim.Schedule(start+slotA/1000, func() { r.Net.EnableReliable(netsim.ReliableConfig{BackoffBase: slotA}) })
	r.Sim.Schedule(start+1.5*slotA, func() { r.Net.LinkUp(12, 11) })
	if _, err := r.Run(src, NewSENSJoin(), 0, WithReliable(netsim.ReliableConfig{}), Traced(rec)); err != nil {
		t.Fatal(err)
	}

	cut := map[topology.NodeID]int{}
	proxied := map[topology.NodeID]int{}
	var deadline11, late float64
	for _, ev := range rec.Journal().Events {
		switch {
		case ev.Kind == trace.KindTreecut:
			cut[ev.Node] = ev.Arg
			if ev.Node == 11 {
				deadline11 = ev.At
			}
		case ev.Kind == trace.KindProxy:
			proxied[ev.Node] = ev.Arg
		case ev.Kind == trace.KindRx && !ev.Ack && ev.Node == 12 && ev.Peer == 11 && ev.Phase == PhaseJACollect:
			late = ev.At
		}
	}
	if late <= deadline11 {
		t.Fatalf("node 12's Treecut message reached node 11 at %g, not after its deadline %g", late, deadline11)
	}
	wantCut := map[topology.NodeID]int{12: 1, 11: 1, 10: 2, 9: 3}
	for id, n := range wantCut {
		if cut[id] != n {
			t.Errorf("node %d sent %d Treecut tuples, want %d", id, cut[id], n)
		}
	}
	if len(cut) != len(wantCut) {
		t.Errorf("Treecut nodes %v, want %v", cut, wantCut)
	}
	if len(proxied) != 1 || proxied[8] != 3 {
		t.Errorf("proxies gathered %v, want node 8 with the tuples of 11, 10 and 9", proxied)
	}
}

func TestSelectiveForwardingPrunesSubtreesOnLine(t *testing.T) {
	// With a filter that matches nothing, no filter packet must travel
	// at all (the base station sees an empty filter).
	r := lineRunner(t, 12)
	src := `SELECT A.temp, B.temp FROM Sensors A, Sensors B
		WHERE A.temp - B.temp > 500 ONCE` // impossible
	res, err := r.Run(src, NewSENSJoin(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 0 {
		t.Fatal("impossible predicate produced rows")
	}
	if p := r.Stats.TotalTx(PhaseFilterDissem); p != 0 {
		t.Fatalf("empty filter still disseminated %d packets", p)
	}
	if p := r.Stats.TotalTx(PhaseFinalCollect); p != 0 {
		t.Fatalf("empty filter still collected %d final packets", p)
	}
}
