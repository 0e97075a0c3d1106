package core

import (
	"sensjoin/internal/netsim"
	"sensjoin/internal/routing"
	"sensjoin/internal/topology"
	"sensjoin/internal/trace"
)

// Mid-round tree repair. Scoped recovery (recovery.go) alone can
// re-request a missing subtree, but when churn severed the subtree's
// tree edge the re-request travels into a void: the old path no longer
// exists. With Exec.Repair armed, every recovery round first re-parents
// the orphaned nodes onto the surviving tree (routing.Repair — the
// incremental generalization of RebuildTreeAvoidingFailures) and then
// replays the collection for exactly those subtrees over the repaired
// paths. Detection rides on the reliable transport's give-up signal:
// exhausted directed links mark tree edges as broken alongside links the
// simulator itself reports down or dead.

// repairExec probes for damage and, when any tree edge is broken or a
// rejoined node is attachable, swaps in an incrementally repaired tree.
// Returns whether a repair happened. The swap is propagated to the
// owning Runner (x.onTreeSwap) so everything that re-reads the tree —
// recovery rounds, audits of later runs, the depth gauge — follows.
func repairExec(x *Exec) bool {
	bad := x.Net.ExhaustedLinks()
	exhausted := func(a, b topology.NodeID) bool {
		return bad[netsim.Link{From: a, To: b}] > 0 || bad[netsim.Link{From: b, To: a}] > 0
	}
	broken := func(parent, child topology.NodeID) bool {
		return !x.Net.LinkOK(parent, child) || exhausted(parent, child)
	}
	var avoid func(parent, child topology.NodeID) bool
	if len(bad) > 0 {
		avoid = exhausted
	}
	nt, reattached := routing.Repair(x.Tree, x.Net.LiveNeighbors(), broken, avoid)
	if nt == x.Tree {
		return false
	}
	if x.repairs == 0 {
		x.repairAt = x.Sim.Now()
	}
	x.repairs++
	x.Tree = nt
	if x.onTreeSwap != nil {
		x.onTreeSwap(nt)
	}
	// The exhaustion record is consumed, exactly like
	// RebuildTreeAvoidingFailures: the next probe trusts the links again
	// unless they fail again.
	x.Net.ClearExhaustedLinks()
	x.span(trace.KindRepair, topology.BaseStation, -1, PhaseRecovery, len(reattached))
	if x.Metrics != nil {
		x.Metrics.Repairs.Inc()
		x.Metrics.Reattached.Add(int64(len(reattached)))
	}
	return true
}

// EnableMidRoundRepair arms mid-round incremental tree repair for every
// execution this runner starts: scoped recovery re-parents severed
// subtrees and replays their traffic instead of reporting them missing.
// Requires reliable transport to matter (recovery only runs there).
// Off by default — the paper's loss tables and the plain recovery tests
// keep their re-execute-everything semantics.
func (r *Runner) EnableMidRoundRepair() { r.repair = true }

// AttachChurn wires a churn & mobility injector to this runner's
// network and, when tracing or metrics are enabled, into the journal and
// the sensjoin_churn_* instrument family. Call Cover on the returned
// injector before each execution window. Churn ticks are coordinator
// events (netsim.Sim.Schedule): they run with every region stopped, so a
// sharded runner stays sharded and same-seed churn runs replay
// bit-identically at any shard or worker count.
func (r *Runner) AttachChurn(cfg netsim.ChurnConfig) *netsim.Churn {
	ch := netsim.NewChurn(r.Net, cfg)
	if r.reg != nil {
		ch.SetMetrics(netsim.NewChurnMetrics(r.reg))
	}
	// The journal hook reads r.Trace at event time, so AttachChurn and
	// EnableTrace compose in either order.
	ch.OnEvent = func(ev netsim.ChurnEvent) {
		if r.Trace == nil {
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
		r.Trace.Span(ev.At, k, ev.Node, -1, "", ev.Arg)
	}
	r.churn = ch
	return ch
}
