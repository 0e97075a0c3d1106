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

// AttachChurn wires a churn & mobility injector to this runner's
// network and into the sensjoin_churn_* instrument family when metrics
// are enabled; a tick that fires inside a traced execution is journaled
// there. Call Cover on the returned
// injector before each execution window. Churn ticks are coordinator
// events (netsim.Sim.Schedule): they run with every region stopped, so a
// sharded runner stays sharded and same-seed churn runs replay
// bit-identically at any shard or worker count.
func (r *Runner) AttachChurn(cfg netsim.ChurnConfig) *netsim.Churn {
	ch := netsim.NewChurn(r.Net, cfg)
	if r.reg != nil {
		ch.SetMetrics(netsim.NewChurnMetrics(r.reg))
	}
	// The journal hook reads the running execution's recorder at event
	// time; a tick between executions is journaled nowhere.
	ch.OnEvent = func(ev netsim.ChurnEvent) {
		if r.rec == nil {
			return
		}
		var k trace.Kind
		switch ev.Kind {
		case netsim.ChurnDeath:
			k = trace.KindChurnDeath
		case netsim.ChurnRejoin:
			k = trace.KindChurnRejoin
		default:
			k = trace.KindChurnMove
		}
		r.rec.Span(ev.At, k, ev.Node, -1, "", ev.Arg)
	}
	r.churn = ch
	return ch
}
