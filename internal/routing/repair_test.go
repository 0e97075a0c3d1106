package routing

import (
	"testing"

	"sensjoin/internal/topology"
)

// gridNeighbors builds the neighbor lists of a small grid deployment.
func gridNeighbors(t *testing.T) (*topology.Deployment, [][]topology.NodeID) {
	t.Helper()
	dep := topology.Grid(6, 6, 35, 50)
	return dep, dep.Neighbors
}

func neverBroken(parent, child topology.NodeID) bool { return false }

func TestRepairNoDamageReturnsSameTree(t *testing.T) {
	_, nb := gridNeighbors(t)
	tree := BuildTree(nb, topology.BaseStation)
	nt, re := Repair(tree, nb, neverBroken)
	if nt != tree {
		t.Fatalf("repair of an undamaged tree built a new tree")
	}
	if len(re) != 0 {
		t.Fatalf("repair of an undamaged tree re-attached %v", re)
	}
}

func TestRepairReattachesOnlyOrphans(t *testing.T) {
	_, nb := gridNeighbors(t)
	tree := BuildTree(nb, topology.BaseStation)
	// Sever the deepest non-leaf subtree's uplink.
	var victim topology.NodeID = -1
	for i := range tree.Parent {
		id := topology.NodeID(i)
		if id == tree.Root || !tree.Reachable(id) || len(tree.Children[id]) == 0 {
			continue
		}
		if victim == -1 || tree.Depth[id] > tree.Depth[victim] {
			victim = id
		}
	}
	p := tree.Parent[victim]
	broken := func(a, b topology.NodeID) bool { return a == p && b == victim }
	nt, re := Repair(tree, nb, broken)
	if nt == tree {
		t.Fatalf("severed uplink did not trigger repair")
	}
	if err := nt.Validate(nb); err != nil {
		t.Fatalf("repaired tree invalid: %v", err)
	}
	// The orphaned set is victim + descendants; exactly those may change
	// parent, and all must be re-attached (the grid is well-connected).
	orphans := map[topology.NodeID]bool{victim: true}
	var mark func(v topology.NodeID)
	mark = func(v topology.NodeID) {
		for _, c := range tree.Children[v] {
			orphans[c] = true
			mark(c)
		}
	}
	mark(victim)
	for i := range tree.Parent {
		id := topology.NodeID(i)
		if orphans[id] {
			if !nt.Reachable(id) {
				t.Fatalf("orphan %d not re-attached", id)
			}
			continue
		}
		if nt.Parent[i] != tree.Parent[i] {
			t.Fatalf("intact node %d changed parent %d -> %d", id, tree.Parent[i], nt.Parent[i])
		}
		if nt.Depth[i] != tree.Depth[i] {
			t.Fatalf("intact node %d changed depth %d -> %d", id, tree.Depth[i], nt.Depth[i])
		}
	}
	if nt.Parent[victim] == p {
		t.Fatalf("repair re-attached %d through the broken link to %d", victim, p)
	}
	seen := map[topology.NodeID]bool{}
	for _, id := range re {
		if !orphans[id] {
			t.Fatalf("re-attached list contains non-orphan %d", id)
		}
		seen[id] = true
	}
	for id := range orphans {
		if !seen[id] {
			t.Fatalf("orphan %d missing from the re-attached list", id)
		}
	}
}

func TestRepairAvoidsBadLinksUnlessOnlyPath(t *testing.T) {
	// Line 0-1-2-3: break 1->2; the only way back for {2,3} is the broken
	// link itself (an exhausted link is up, just untrustworthy).
	// Avoidance must lose to connectivity.
	dep := topology.Line(3, 40, 50)
	nb := dep.Neighbors
	tree := BuildTree(nb, topology.BaseStation)
	broken := func(a, b topology.NodeID) bool { return a == 1 && b == 2 }
	nt, re := Repair(tree, nb, broken)
	if err := nt.Validate(nb); err != nil {
		t.Fatalf("repaired tree invalid: %v", err)
	}
	if !nt.Reachable(2) || !nt.Reachable(3) {
		t.Fatalf("stragglers not attached through the avoided last-resort link")
	}
	if len(re) != 2 {
		t.Fatalf("re-attached %v, want nodes 2 and 3", re)
	}
}

func TestRepairLeavesUnreachableOrphans(t *testing.T) {
	// Line 0-1-2-3: node 1 is the cut vertex; with every link of node 1
	// broken, 1..3 have no path and must stay unreachable.
	dep := topology.Line(3, 40, 50)
	tree := BuildTree(dep.Neighbors, topology.BaseStation)
	// Live neighbor lists with node 1 gone entirely.
	nb := make([][]topology.NodeID, len(dep.Neighbors))
	for i, l := range dep.Neighbors {
		if i == 1 {
			continue
		}
		for _, v := range l {
			if v != 1 {
				nb[i] = append(nb[i], v)
			}
		}
	}
	broken := func(a, b topology.NodeID) bool { return a == 1 || b == 1 }
	nt, re := Repair(tree, nb, broken)
	if len(re) != 0 {
		t.Fatalf("re-attached %v across a true partition", re)
	}
	for _, id := range []topology.NodeID{1, 2, 3} {
		if nt.Reachable(id) {
			t.Fatalf("partitioned node %d marked reachable", id)
		}
	}
}

// TestRepairAttachesRejoiningNode: a node the old tree never reached
// (dead at build time) with live links now must be adopted.
func TestRepairAttachesRejoiningNode(t *testing.T) {
	_, nb := gridNeighbors(t)
	full := BuildTree(nb, topology.BaseStation)
	// Build a tree with one leaf missing (as if dead at build time).
	leaf := topology.NodeID(-1)
	for i := range full.Parent {
		id := topology.NodeID(i)
		if id != full.Root && len(full.Children[id]) == 0 {
			leaf = id
			break
		}
	}
	parent := append([]topology.NodeID(nil), full.Parent...)
	parent[leaf] = NoParent
	tree, err := FromParents(parent, topology.BaseStation)
	if err != nil {
		t.Fatal(err)
	}
	nt, re := Repair(tree, nb, neverBroken)
	if !nt.Reachable(leaf) {
		t.Fatalf("rejoining node %d not adopted", leaf)
	}
	if len(re) != 1 || re[0] != leaf {
		t.Fatalf("re-attached %v, want [%d]", re, leaf)
	}
}
