package core

import (
	"sensjoin/internal/netsim"
	"sensjoin/internal/routing"
	"sensjoin/internal/topology"
	"sensjoin/internal/trace"
)

// Mid-round tree repair is the first step of every scoped-recovery round
// (recovery.go). A re-request alone travels into a void when churn
// severed the missing subtree's tree edge: the old path no longer exists.
// So each round first re-parents the orphaned nodes onto the surviving
// tree (routing.Repair, the incremental form of Runner.RebuildTree) and
// then replays the collection for exactly the missing subtrees over the
// repaired paths. Detection rides on the reliable transport's give-up
// signal: exhausted directed links mark tree edges as broken alongside
// links the simulator itself reports down or dead.

// repairExec probes for damage and, when any tree edge is broken or a
// rejoined node is attachable, swaps in an incrementally repaired tree.
// The swap is propagated to the owning Runner (x.onTreeSwap) so
// everything that re-reads the tree — recovery rounds, audits of later
// runs, the depth gauge — follows.
func repairExec(x *Exec) {
	exhausted := exhaustedLinks(x.Net)
	broken := func(parent, child topology.NodeID) bool {
		return !x.Net.LinkOK(parent, child) || exhausted != nil && exhausted(parent, child)
	}
	nt, reattached := routing.Repair(x.Tree, x.Net.LiveNeighbors(), broken)
	if nt == x.Tree {
		return
	}
	if x.repairs == 0 {
		x.repairAt = x.Sim.Now()
	}
	x.repairs++
	x.Tree = nt
	if x.onTreeSwap != nil {
		x.onTreeSwap(nt)
	}
	x.Net.ClearExhaustedLinks()
	x.span(trace.KindRepair, topology.BaseStation, -1, PhaseRecovery, len(reattached))
	if x.Metrics != nil {
		x.Metrics.Repairs.Inc()
		x.Metrics.Reattached.Add(int64(len(reattached)))
	}
}

// exhaustedLinks reports the links on which a reliable transfer, in
// either direction, exhausted its retransmissions since the record was
// last consumed; nil when there are none (always, without reliable
// transport). Both ways of healing the tree — Runner.RebuildTree between
// executions and repairExec inside one — steer around these links and
// then consume the record, so the next heal trusts them again unless
// they fail again.
func exhaustedLinks(net *netsim.Network) func(a, b topology.NodeID) bool {
	bad := net.ExhaustedLinks()
	if len(bad) == 0 {
		return nil
	}
	return func(a, b topology.NodeID) bool {
		return bad[netsim.Link{From: a, To: b}] > 0 || bad[netsim.Link{From: b, To: a}] > 0
	}
}
