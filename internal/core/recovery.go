package core

import (
	"sort"

	"sensjoin/internal/netsim"
	"sensjoin/internal/routing"
	"sensjoin/internal/topology"
	"sensjoin/internal/trace"
)

// Scoped recovery (reliable-transport mode). The paper's §IV-F error
// handling re-executes the whole query when anything was lost; with
// hop-by-hop reliable transport almost everything arrives, so the base
// station instead tracks *which* subtrees are missing and re-requests
// only those: a re-request travels hop-by-hop down the tree path to each
// missing subtree's root, the subtree ships its complete tuples
// unconditionally (the filter stands down — a subtree in recovery may
// never have received it) in the collection wave of collectWave, relays
// above the subtrees forward each arrival toward the base station
// immediately, and the round repeats up to maxRecoveryRounds times. Each
// round begins with a mid-round tree repair (repair.go), so a subtree
// whose tree edge broke is re-requested over a live path. Recovery and
// repair are the round's, not one query's: every member of a shared round
// reports its repairs and missing subtrees on the tree it ended with.
// Whole-query re-execution after a full rebuild (WithRecovery, for a lone
// query and a shared round alike) is the paper's path and the one
// without reliable transport.

// maxRecoveryRounds bounds the scoped re-request rounds per execution.
const maxRecoveryRounds = 3

// contributorSet computes (with simulator omniscience) the nodes whose
// tuples the exact result needs. A result holding every contributor's
// tuple joins to exactly the ground truth: extra non-contributing tuples
// produce no rows, and no row of the true result lacks its inputs.
func contributorSet(x *Exec, p *plan) map[topology.NodeID]bool {
	var tuples []finalTuple
	for id := 1; id < x.Dep.N(); id++ {
		if p.nodes[id].flags != 0 {
			tuples = append(tuples, p.tuple(topology.NodeID(id)))
		}
	}
	contrib := joinContributors(x, tuples)
	set := make(map[topology.NodeID]bool, len(contrib))
	for _, id := range contrib {
		set[id] = true
	}
	return set
}

// memberSet returns every member node — what the external join needs.
func memberSet(p *plan) map[topology.NodeID]bool {
	out := make(map[topology.NodeID]bool)
	for id, nd := range p.nodes {
		if nd.flags != 0 {
			out[topology.NodeID(id)] = true
		}
	}
	return out
}

// minimalRoots returns the missing nodes with no missing proper ancestor
// — the subtree roots recovery re-requests — in ascending order.
func minimalRoots(tree *routing.Tree, missing []topology.NodeID) []topology.NodeID {
	set := make(map[topology.NodeID]bool, len(missing))
	for _, id := range missing {
		set[id] = true
	}
	var roots []topology.NodeID
	for v := range set {
		above := false
		for u := tree.Parent[v]; u != routing.NoParent; u = tree.Parent[u] {
			if set[u] {
				above = true
				break
			}
		}
		if !above {
			roots = append(roots, v)
		}
	}
	sort.Slice(roots, func(i, k int) bool { return roots[i] < roots[k] })
	return roots
}

// classifyMissing explains why nodes are still missing: a dead node (or
// dead ancestor on its tree path) is a dead subtree, an alive node with
// no live path to the base station is a partition, anything else is
// plain loss. Dead subtrees dominate partitions dominate loss.
func classifyMissing(x *Exec, missing []topology.NodeID) string {
	if len(missing) == 0 {
		return ReasonLoss
	}
	// Reachable over any live path, not just over tree edges.
	live := routing.BuildTree(x.Net.LiveNeighbors(), topology.BaseStation)
	reason := ReasonLoss
	for _, v := range missing {
		if !x.Net.Alive(v) {
			return ReasonDeadSubtree
		}
		if !live.Reachable(v) {
			for u := x.Tree.Parent[v]; u != routing.NoParent; u = x.Tree.Parent[u] {
				if !x.Net.Alive(u) {
					return ReasonDeadSubtree
				}
			}
			reason = ReasonPartition
		}
	}
	return reason
}

// runScopedRecovery drives the recovery rounds of round x, begun at
// start: needed lists the nodes whose tuples the result requires, have
// the tuples that already arrived (mutated in place as rounds recover
// data), standDown extra subtree roots that must ship everything because
// filter dissemination to them was never confirmed. Returns the rounds
// run and the nodes still missing afterwards (ascending).
func runScopedRecovery(x *Exec, p *plan, needed map[topology.NodeID]bool,
	have map[topology.NodeID]finalTuple, standDown []topology.NodeID, start float64) (int, []topology.NodeID) {
	missing := append(missingFrom(needed, have), standDown...)
	rounds := 0
	for len(missing) > 0 && rounds < maxRecoveryRounds {
		rounds++
		// Mid-round repair: re-parent severed subtrees onto the surviving
		// tree first, so the re-requests below travel live paths and the
		// recovery wave IS the replay of the affected phase traffic for
		// the re-attached subtrees.
		repairExec(x)
		roots := minimalRoots(x.Tree, missing)
		for _, r := range roots {
			x.span(trace.KindRerequest, r, -1, PhaseRecovery, rounds)
		}
		for _, t := range recoverRound(x, p, roots) {
			if _, ok := have[t.node]; !ok {
				have[t.node] = t
			}
		}
		missing = missingFrom(needed, have)
	}
	if x.repairs > 0 && x.Metrics != nil {
		x.Metrics.RepairSeconds.Observe(x.repairAt - start)
		if len(missing) > 0 {
			// Repair ran but could not restore completeness before the
			// retry budget drained; the result carries the per-subtree
			// provenance.
			x.Metrics.RepairFailures.Inc()
		}
	}
	return rounds, missing
}

// recoverRound executes one scoped re-collection: re-requests travel
// hop-by-hop down the tree path to every root, the missing subtrees run
// the leaves-first collection wave of collectWave, shipping complete
// tuples unconditionally, and nodes on the return paths outside the
// subtrees relay each arrival upward at once. Nothing is copied from hop
// to hop. All traffic is charged under PhaseRecovery; it returns the
// tuples that reached the base station.
func recoverRound(x *Exec, p *plan, roots []topology.NodeID) []finalTuple {
	tree := x.Tree
	n := x.Net.N()
	// rootOf[v] is the root of the missing subtree v is in, 0 outside
	// every subtree (a root is never the base station). Roots are minimal,
	// so it is unique: top-down, a node inherits its parent's. levels
	// lists the subtree nodes by depth, ascending.
	rootOf := make([]topology.NodeID, n)
	for _, r := range roots {
		if r != topology.BaseStation && tree.Reachable(r) {
			rootOf[r] = r
		}
	}
	levels := make([][]topology.NodeID, tree.MaxDepth+1)
	for d := 1; d <= tree.MaxDepth; d++ {
		for _, v := range tree.Level(d) {
			if rootOf[v] == 0 {
				rootOf[v] = rootOf[tree.Parent[v]]
			}
			if rootOf[v] != 0 {
				levels[d] = append(levels[d], v)
			}
		}
	}
	// A subtree ships only if its root actually received the re-request —
	// a node cannot know to retransmit without being asked.
	reqArrived := make([]bool, n)

	// A re-request travels hop-by-hop along its path, each hop carrying
	// the rest of it (2 bytes per id).
	request := func(from topology.NodeID, path []topology.NodeID) {
		x.Net.Send(netsim.Message{
			Kind: kindRerequest, Src: from, Dst: path[0],
			Phase: PhaseRecovery, Size: 2 + 2*len(path[1:]), Payload: path[1:],
		})
	}
	w := &wave{nodes: borrow(&x.run().wave, n), x: x, p: p, tree: tree, phase: PhaseRecovery}
	defer giveBack(x, &x.run().wave, w.nodes)
	x.Net.SetHandler(func(id topology.NodeID, m netsim.Message) {
		switch m.Kind {
		case kindRerequest:
			if rest := m.Payload.([]topology.NodeID); len(rest) > 0 {
				request(id, rest)
			} else {
				reqArrived[id] = true
			}
		case kindFinal:
			// A relay's forward names the subtree whose tuples it carries
			// (&rootOf[r] for root r), so the base station notes exactly
			// the subtrees whose delivery reached it.
			from := m.Src
			if r, ok := m.Payload.(*topology.NodeID); ok && r == &rootOf[*r] {
				from = *r
			} else if m.Payload != any(w) {
				return // not this wave's
			}
			if id == topology.BaseStation || rootOf[id] != 0 {
				w.heard(id, from, m.Size)
				return
			}
			// A relay on the path to the base station: recovery has no
			// slot schedule above the subtrees, forward immediately.
			x.Net.Send(netsim.Message{
				Kind: kindFinal, Src: id, Dst: tree.Parent[id],
				Phase: PhaseRecovery, Size: m.Size, Payload: &rootOf[from],
			})
		}
	})
	defer x.Net.SetHandler(nil)

	// One re-request per root reachable from the base station, along its
	// tree path.
	maxHops := 0
	for _, r := range roots {
		if rootOf[r] != 0 {
			path := tree.Path(r)[1:] // without the base station
			maxHops = max(maxHops, len(path))
			request(topology.BaseStation, path)
		}
	}

	// The collection wave starts once the deepest re-request had time to
	// arrive; inside the subtrees the usual leaves-first slot schedule
	// applies, one deadline per subtree level.
	reqSlot := x.Net.SlotFor(2 + 2*tree.MaxDepth)
	waveStart := x.Sim.Now() + float64(maxHops+1)*reqSlot
	slot := collectionSlot(x, p)
	ship := func(id topology.NodeID) {
		if reqArrived[rootOf[id]] { // else the re-request never made it down; retry next round
			w.ship(id, p.nodes[id].flags != 0)
		}
	}
	for d, ids := range levels {
		x.Sim.ScheduleNodes(topology.BaseStation, ids, waveStart+float64(tree.MaxDepth-d)*slot, ship)
	}
	x.Sim.Run()
	return w.gather(nil, topology.BaseStation)
}

// finishReliable recomputes member's result from the (possibly
// recovered) tuple set and fills the completeness fields. x is the round
// the member ran in: its tree, clock and repair record are every member's.
// start is the round's begin time; the response time includes recovery.
func finishReliable(x, member *Exec, p *plan, res *Result,
	have map[topology.NodeID]finalTuple, missing []topology.NodeID, rounds int, start float64) {
	ids := make([]topology.NodeID, 0, len(have))
	for id := range have {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, k int) bool { return ids[i] < ids[k] })
	tuples := make([]finalTuple, 0, len(ids))
	for _, id := range ids {
		tuples = append(tuples, have[id])
	}
	out := exactJoin(member, tuples)
	res.Release() // the rows before recovery
	res.Rows, res.block = out.rows, out.block
	res.ContributingNodes = len(out.contrib)
	res.Complete = len(missing) == 0
	res.RecoveryRounds = rounds
	res.MissingSubtrees = nil
	res.IncompleteReason = ""
	res.Repairs = x.repairs
	if x.repairs > 0 {
		res.RepairLatency = x.repairAt - start
	}
	if len(missing) > 0 {
		annotateIncomplete(x, missing, res)
	}
	res.ResponseTime = x.Sim.Now() - start
}

// annotateIncomplete surfaces which subtrees are missing and why on an
// incomplete result, on the tree round x ended with. The non-reliable
// path calls it without recovering anything — completeness verdicts keep
// the paper's re-execute-everything semantics there.
func annotateIncomplete(x *Exec, missing []topology.NodeID, res *Result) {
	if len(missing) > 0 {
		res.MissingSubtrees = minimalRoots(x.Tree, missing)
	}
	res.IncompleteReason = classifyMissing(x, missing)
}

// missingFrom returns the needed nodes absent from have, ascending.
func missingFrom(needed map[topology.NodeID]bool, have map[topology.NodeID]finalTuple) []topology.NodeID {
	var out []topology.NodeID
	for id := range needed {
		if _, ok := have[id]; !ok {
			out = append(out, id)
		}
	}
	sort.Slice(out, func(i, k int) bool { return out[i] < out[k] })
	return out
}

// tupleIndex indexes tuples by owner, keeping the first per node.
func tupleIndex(tuples []finalTuple) map[topology.NodeID]finalTuple {
	out := make(map[topology.NodeID]finalTuple, len(tuples))
	for _, t := range tuples {
		if _, ok := out[t.node]; !ok {
			out[t.node] = t
		}
	}
	return out
}
