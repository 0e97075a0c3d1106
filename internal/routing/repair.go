package routing

import "sensjoin/internal/topology"

// Repair re-parents only the damaged part of a tree instead of
// rebuilding it from scratch: a full rebuild would re-shuffle healthy
// subtrees and invalidate the slot schedule of traffic already in
// flight.
//
// It finds the orphaned set — every descendant of a tree edge that
// broken reports unusable, plus alive nodes the old tree never reached
// (rejoins) — and re-attaches exactly those nodes onto the surviving
// tree with the two-pass BFS every tree of this package is built by
// (grow): shallow parents first, broken links only as a last resort (an
// exhausted link is up, just untrustworthy). Every node outside the
// orphaned set keeps its parent, children order and depth.
//
// t is never mutated (the package's immutability contract); the repaired
// tree is a fresh value. When no tree edge is broken and no rejoined
// node needs attaching, t itself is returned with a nil re-attach list,
// so callers can cheaply probe "is repair needed". Orphans with no live
// path to the survivors stay unreachable (Depth -1) in the repaired
// tree — scoped recovery reports them as missing subtrees.
func Repair(t *Tree, neighbors [][]topology.NodeID, broken func(parent, child topology.NodeID) bool) (*Tree, []topology.NodeID) {
	n := len(t.Parent)
	orphan := make([]bool, n)
	var mark func(v topology.NodeID)
	mark = func(v topology.NodeID) {
		if orphan[v] {
			return
		}
		orphan[v] = true
		for _, c := range t.Children[v] {
			mark(c)
		}
	}
	any := false
	for i := 0; i < n; i++ {
		id := topology.NodeID(i)
		if id == t.Root {
			continue
		}
		if t.Depth[i] == -1 {
			// Not in the old tree (dead at build time, or severed by an
			// earlier failure): eligible for attachment if it has live
			// links now.
			if len(neighbors[i]) > 0 {
				orphan[i] = true
				any = true
			}
			continue
		}
		if p := t.Parent[i]; p != NoParent && broken(p, id) {
			mark(id)
			any = true
		}
	}
	if !any {
		return t, nil
	}

	parent := append([]topology.NodeID(nil), t.Parent...)
	depth := append([]int(nil), t.Depth...)
	for i, o := range orphan {
		if o {
			parent[i], depth[i] = NoParent, -1
		}
	}
	grow(parent, depth, neighbors, broken)
	var reattached []topology.NodeID
	for i, o := range orphan {
		if o && parent[i] != NoParent {
			reattached = append(reattached, topology.NodeID(i))
		}
	}
	return assemble(parent, depth, t.Root), reattached
}
