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
// never have received it), relays forward toward the base station
// immediately, and the round repeats up to maxRecoveryRounds times.
// Whole-query re-execution (the WithRecovery run option) remains the fallback
// for when the tree itself changed.

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
	_, contrib := exactJoin(x, tuples)
	return contrib
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
func minimalRoots(tree *routing.Tree, missing map[topology.NodeID]bool) []topology.NodeID {
	var roots []topology.NodeID
	for v := range missing {
		above := false
		for u := tree.Parent[v]; u != routing.NoParent; u = tree.Parent[u] {
			if missing[u] {
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
	reach := liveReach(x.Net)
	reason := ReasonLoss
	for _, v := range missing {
		if !x.Net.Alive(v) {
			return ReasonDeadSubtree
		}
		if !reach[v] {
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

// liveReach marks the nodes reachable from the base station over live
// links (any path, not just tree edges).
func liveReach(net *netsim.Network) []bool {
	nb := net.LiveNeighbors()
	reach := make([]bool, len(nb))
	reach[topology.BaseStation] = true
	queue := []topology.NodeID{topology.BaseStation}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, v := range nb[u] {
			if !reach[v] {
				reach[v] = true
				queue = append(queue, v)
			}
		}
	}
	return reach
}

// runScopedRecovery drives the recovery rounds: needed lists the nodes
// whose tuples the result requires, have the tuples that already
// arrived (mutated in place as rounds recover data), standDown extra
// subtree roots that must ship everything because filter dissemination
// to them was never confirmed. Returns the rounds run and the nodes
// still missing afterwards (ascending).
func runScopedRecovery(x *Exec, p *plan, needed map[topology.NodeID]bool,
	have map[topology.NodeID]finalTuple, standDown []topology.NodeID) (int, []topology.NodeID) {
	missing := make(map[topology.NodeID]bool)
	for id := range needed {
		if _, ok := have[id]; !ok {
			missing[id] = true
		}
	}
	for _, r := range standDown {
		missing[r] = true
	}
	rounds := 0
	for len(missing) > 0 && rounds < maxRecoveryRounds {
		rounds++
		if x.Repair {
			// Mid-round repair: re-parent severed subtrees onto the
			// surviving tree first, so the re-requests below travel live
			// paths and the recovery wave IS the replay of the affected
			// phase traffic for the re-attached subtrees.
			repairExec(x)
		}
		roots := minimalRoots(x.Tree, missing)
		for _, r := range roots {
			x.span(trace.KindRerequest, r, -1, PhaseRecovery, rounds)
		}
		for _, t := range recoverRound(x, p, roots) {
			if _, ok := have[t.node]; !ok {
				have[t.node] = t
			}
		}
		missing = make(map[topology.NodeID]bool)
		for id := range needed {
			if _, ok := have[id]; !ok {
				missing[id] = true
			}
		}
	}
	left := make([]topology.NodeID, 0, len(missing))
	for id := range missing {
		left = append(left, id)
	}
	sort.Slice(left, func(i, k int) bool { return left[i] < left[k] })
	if x.Repair && x.repairs > 0 && len(left) > 0 && x.Metrics != nil {
		// Repair ran but could not restore completeness before the retry
		// budget drained; the result carries the per-subtree provenance.
		x.Metrics.RepairFailures.Inc()
	}
	return rounds, left
}

// recoverRound executes one scoped re-collection: re-requests travel
// hop-by-hop down the tree path to every root, the missing subtrees run
// a leaves-first collection wave shipping complete tuples
// unconditionally, and nodes on the return paths outside the subtrees
// relay upward immediately. All traffic is charged under PhaseRecovery;
// it returns the tuples that reached the base station.
func recoverRound(x *Exec, p *plan, roots []topology.NodeID) []finalTuple {
	tree := x.Tree
	n := x.Net.N()
	isRoot := make([]bool, n)
	for _, r := range roots {
		if r > 0 && int(r) < n {
			isRoot[r] = true
		}
	}
	inSub := make([]bool, n)
	rootOf := make([]topology.NodeID, n)
	for i := 1; i < n; i++ {
		if !tree.Reachable(topology.NodeID(i)) {
			continue
		}
		for v := topology.NodeID(i); v != routing.NoParent; v = tree.Parent[v] {
			if isRoot[v] {
				inSub[i] = true
				rootOf[i] = v // the nearest missing root above (roots are minimal, so unique)
				break
			}
		}
	}
	// A subtree ships only if its root actually received the re-request —
	// a node cannot know to retransmit without being asked.
	reqArrived := make([]bool, n)

	inbox := borrow(&x.run().inbox, n)
	defer giveBack(x, &x.run().inbox, inbox)
	x.Net.SetHandler(func(id topology.NodeID, m netsim.Message) {
		switch m.Kind {
		case kindRerequest:
			rest := m.Payload.([]topology.NodeID)
			if len(rest) == 0 {
				reqArrived[id] = true
				return
			}
			x.Net.Send(netsim.Message{
				Kind: kindRerequest, Src: id, Dst: rest[0],
				Phase: PhaseRecovery, Size: 2 + 2*len(rest[1:]), Payload: rest[1:],
			})
		case kindRecover:
			tuples := m.Payload.([]finalTuple)
			if id == topology.BaseStation || inSub[id] {
				inbox[id] = append(inbox[id], tuples...)
				return
			}
			// A relay on the path to the base station: recovery has no
			// slot schedule above the subtree, forward immediately.
			size := 0
			for _, t := range tuples {
				size += t.bytes
			}
			x.Net.Send(netsim.Message{
				Kind: kindRecover, Src: id, Dst: tree.Parent[id],
				Phase: PhaseRecovery, Size: size, Payload: tuples,
			})
		}
	})
	defer x.Net.SetHandler(nil)

	// Re-requests: one per root, forwarded hop-by-hop along the tree path
	// (each hop carries the remaining path, 2 bytes per id).
	maxHops := 0
	for _, r := range roots {
		if r == topology.BaseStation || !tree.Reachable(r) {
			continue
		}
		var path []topology.NodeID // base station → root, excluding the base station
		for v := r; v != topology.BaseStation && v != routing.NoParent; v = tree.Parent[v] {
			path = append(path, v)
		}
		for i, k := 0, len(path)-1; i < k; i, k = i+1, k-1 {
			path[i], path[k] = path[k], path[i]
		}
		if len(path) > maxHops {
			maxHops = len(path)
		}
		x.Net.Send(netsim.Message{
			Kind: kindRerequest, Src: topology.BaseStation, Dst: path[0],
			Phase: PhaseRecovery, Size: 2 + 2*len(path[1:]), Payload: path[1:],
		})
	}

	// The collection wave starts once the deepest re-request had time to
	// arrive; inside the subtrees the usual leaves-first slot schedule
	// applies.
	reqSlot := x.Net.SlotFor(2 + 2*tree.MaxDepth)
	waveStart := x.Sim.Now() + float64(maxHops+1)*reqSlot
	slot := collectionSlot(x, p)
	levels := make([][]topology.NodeID, tree.MaxDepth+1)
	for i := 1; i < n; i++ {
		if inSub[i] {
			levels[tree.Depth[i]] = append(levels[tree.Depth[i]], topology.NodeID(i))
		}
	}
	ship := func(id topology.NodeID) {
		if !reqArrived[rootOf[id]] {
			return // the re-request never made it down; retry next round
		}
		tuples := inbox[id]
		if p.nodes[id].flags != 0 {
			tuples = append(tuples, p.tuple(id))
		}
		if len(tuples) == 0 {
			return
		}
		size := 0
		for _, t := range tuples {
			size += t.bytes
		}
		x.Net.Send(netsim.Message{
			Kind: kindRecover, Src: id, Dst: tree.Parent[id],
			Phase: PhaseRecovery, Size: size, Payload: tuples,
		})
	}
	// One deadline per subtree level, like every collection wave.
	for d, ids := range levels {
		x.Sim.ScheduleNodes(topology.BaseStation, ids, waveStart+float64(tree.MaxDepth-d)*slot, ship)
	}
	x.Sim.Run()
	return inbox[topology.BaseStation]
}

// finishReliable recomputes the result from the (possibly recovered)
// tuple set and fills the completeness fields. start is the execution's
// begin time; the response time includes recovery.
func finishReliable(x *Exec, p *plan, res *Result,
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
	rows, contrib := exactJoin(x, tuples)
	res.Rows = rows
	res.ContributingNodes = len(contrib)
	res.Complete = len(missing) == 0
	res.RecoveryRounds = rounds
	res.MissingSubtrees = nil
	res.IncompleteReason = ""
	res.Repairs = x.repairs
	if x.repairs > 0 {
		res.RepairLatency = x.repairAt - start
		if x.Metrics != nil {
			x.Metrics.RepairSeconds.Observe(res.RepairLatency)
		}
	}
	if len(missing) > 0 {
		annotateIncomplete(x, missing, res)
	}
	res.ResponseTime = x.Sim.Now() - start
}

// annotateIncomplete surfaces which subtrees are missing and why on an
// incomplete result. The non-reliable path calls it without recovering
// anything — completeness verdicts keep the paper's re-execute-everything
// semantics there.
func annotateIncomplete(x *Exec, missing []topology.NodeID, res *Result) {
	if len(missing) > 0 {
		set := make(map[topology.NodeID]bool, len(missing))
		for _, id := range missing {
			set[id] = true
		}
		res.MissingSubtrees = minimalRoots(x.Tree, set)
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
