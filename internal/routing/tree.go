// Package routing provides the collection tree that SENS-Join and the
// external join forward data along.
//
// The paper builds on the TinyOS collection-tree protocol (CTP, [17]):
// "based on a periodic beaconing mechanism, each node maintains a parent
// that minimizes the hop count to the base station" (§III). This package
// offers both a deterministic instant construction (BuildTree, used by the
// experiment harness) and an event-driven beaconing protocol over the
// simulator (Protocol, used to demonstrate tree formation and repair after
// link failures, §IV-F).
package routing

import (
	"fmt"
	"sort"

	"sensjoin/internal/topology"
)

// NoParent marks the base station and unreachable nodes.
const NoParent topology.NodeID = -1

// Tree is a routing tree rooted at the base station.
//
// Immutability contract: BuildTree (and Protocol's tree extraction)
// fully populate a Tree before returning it, and nothing mutates it
// afterwards — repair is modeled by building a *new* tree over the live
// links and swapping the pointer (core.Runner.RebuildTree). Trees are
// therefore safe to share across concurrently running simulations.
type Tree struct {
	// Parent[i] is the parent of node i, NoParent for the root and for
	// unreachable nodes.
	Parent []topology.NodeID
	// Children[i] lists the children of node i, ascending.
	Children [][]topology.NodeID
	// Depth[i] is the hop count of node i to the root; -1 if unreachable.
	Depth []int
	// Descendants[i] counts all nodes in i's subtree excluding i.
	Descendants []int
	// MaxDepth is the largest depth of any reachable node.
	MaxDepth int
	// Root is the base station id.
	Root topology.NodeID

	// byDepth lists the reachable non-root nodes ordered by (depth, id);
	// levelEnd[d] is where depth d ends in it. See Level.
	byDepth  []topology.NodeID
	levelEnd []int
}

// BuildTree constructs the minimum-hop-count tree over the neighbor lists
// by breadth-first search. Ties are broken toward the lowest parent id,
// matching the deterministic outcome of the beacon protocol.
func BuildTree(neighbors [][]topology.NodeID, root topology.NodeID) *Tree {
	n := len(neighbors)
	t := &Tree{
		Parent:      make([]topology.NodeID, n),
		Children:    make([][]topology.NodeID, n),
		Depth:       make([]int, n),
		Descendants: make([]int, n),
		Root:        root,
	}
	for i := range t.Parent {
		t.Parent[i] = NoParent
		t.Depth[i] = -1
	}
	t.Depth[root] = 0
	queue := []topology.NodeID{root}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		if t.Depth[u] > t.MaxDepth {
			t.MaxDepth = t.Depth[u]
		}
		for _, v := range neighbors[u] {
			if t.Depth[v] == -1 {
				t.Depth[v] = t.Depth[u] + 1
				t.Parent[v] = u
				t.Children[u] = append(t.Children[u], v)
				queue = append(queue, v)
			}
		}
	}
	t.finish()
	return t
}

// BuildTreeAvoiding constructs a minimum-hop tree like BuildTree but
// steers around avoided links: the reliable transport reports directed
// links whose retransmissions exhausted, and the repair prefers parents
// reachable without them. Avoided links are used only as a last resort,
// to attach nodes that have no other path — connectivity beats link
// quality. A nil avoid is equivalent to BuildTree.
func BuildTreeAvoiding(neighbors [][]topology.NodeID, root topology.NodeID, avoid func(parent, child topology.NodeID) bool) *Tree {
	if avoid == nil {
		return BuildTree(neighbors, root)
	}
	n := len(neighbors)
	t := &Tree{
		Parent:      make([]topology.NodeID, n),
		Children:    make([][]topology.NodeID, n),
		Depth:       make([]int, n),
		Descendants: make([]int, n),
		Root:        root,
	}
	for i := range t.Parent {
		t.Parent[i] = NoParent
		t.Depth[i] = -1
	}
	attach := func(u, v topology.NodeID) {
		t.Depth[v] = t.Depth[u] + 1
		t.Parent[v] = u
		t.Children[u] = append(t.Children[u], v)
	}
	// Pass 1: BFS over non-avoided links only.
	t.Depth[root] = 0
	queue := []topology.NodeID{root}
	var reached []topology.NodeID
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		reached = append(reached, u)
		for _, v := range neighbors[u] {
			if t.Depth[v] == -1 && !avoid(u, v) {
				attach(u, v)
				queue = append(queue, v)
			}
		}
	}
	// Pass 2: attach stragglers through avoided links; BFS continues from
	// the pass-1 tree in depth order, so every node still gets a
	// shallowest available parent and Depth stays parent-consistent.
	sort.Slice(reached, func(i, k int) bool {
		if t.Depth[reached[i]] != t.Depth[reached[k]] {
			return t.Depth[reached[i]] < t.Depth[reached[k]]
		}
		return reached[i] < reached[k]
	})
	queue = reached
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, v := range neighbors[u] {
			if t.Depth[v] == -1 {
				attach(u, v)
				queue = append(queue, v)
			}
		}
	}
	for i := range t.Depth {
		if t.Depth[i] > t.MaxDepth {
			t.MaxDepth = t.Depth[i]
		}
	}
	for _, ch := range t.Children {
		sortIDs(ch)
	}
	t.finish()
	return t
}

// FromParents builds a Tree from a parent vector (used to snapshot the
// beacon protocol's state). Unreachable nodes keep Depth -1.
func FromParents(parent []topology.NodeID, root topology.NodeID) (*Tree, error) {
	n := len(parent)
	t := &Tree{
		Parent:      append([]topology.NodeID(nil), parent...),
		Children:    make([][]topology.NodeID, n),
		Depth:       make([]int, n),
		Descendants: make([]int, n),
		Root:        root,
	}
	for i := range t.Depth {
		t.Depth[i] = -1
	}
	for i := 0; i < n; i++ {
		p := parent[i]
		if topology.NodeID(i) == root {
			continue
		}
		if p == NoParent {
			continue
		}
		if p < 0 || int(p) >= n {
			return nil, fmt.Errorf("routing: node %d has out-of-range parent %d", i, p)
		}
		t.Children[p] = append(t.Children[p], topology.NodeID(i))
	}
	for _, ch := range t.Children {
		sortIDs(ch)
	}
	// Depths by walking from the root; also detects cycles (nodes in a
	// cycle never get a depth and stay unreachable).
	t.Depth[root] = 0
	queue := []topology.NodeID{root}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		if t.Depth[u] > t.MaxDepth {
			t.MaxDepth = t.Depth[u]
		}
		for _, v := range t.Children[u] {
			t.Depth[v] = t.Depth[u] + 1
			queue = append(queue, v)
		}
	}
	t.finish()
	return t, nil
}

func sortIDs(ids []topology.NodeID) {
	for i := 1; i < len(ids); i++ {
		for j := i; j > 0 && ids[j] < ids[j-1]; j-- {
			ids[j], ids[j-1] = ids[j-1], ids[j]
		}
	}
}

// finish derives what every constructor owes a Tree once parents, children
// and depths are in place: the descendant counts and the by-depth index.
func (t *Tree) finish() {
	for _, u := range t.PostOrder() {
		d := 0
		for _, c := range t.Children[u] {
			d += 1 + t.Descendants[c]
		}
		t.Descendants[u] = d
	}
	// A counting sort by depth; walking the ids upwards leaves every level
	// ascending.
	t.levelEnd = make([]int, t.MaxDepth+1)
	for _, d := range t.Depth {
		if d > 0 {
			t.levelEnd[d]++
		}
	}
	for d := 1; d <= t.MaxDepth; d++ {
		t.levelEnd[d] += t.levelEnd[d-1]
	}
	t.byDepth = make([]topology.NodeID, t.levelEnd[t.MaxDepth])
	next := append([]int{0}, t.levelEnd[:t.MaxDepth]...)
	for i, d := range t.Depth {
		if d > 0 {
			t.byDepth[next[d]] = topology.NodeID(i)
			next[d]++
		}
	}
}

// Level returns the nodes at depth d (1 <= d <= MaxDepth) in ascending id
// order: the nodes that share a transmission slot in a level-synchronous
// collection wave. Every reachable node but the root is in exactly one
// level. The slice is part of the immutable tree; callers must not write
// to it.
func (t *Tree) Level(d int) []topology.NodeID {
	return t.byDepth[t.levelEnd[d-1]:t.levelEnd[d]:t.levelEnd[d]]
}

// Reachable reports whether node id has a path to the root.
func (t *Tree) Reachable(id topology.NodeID) bool {
	return id == t.Root || t.Depth[id] >= 0
}

// ReachableCount returns the number of reachable nodes, including the root.
func (t *Tree) ReachableCount() int {
	c := 0
	for i := range t.Depth {
		if t.Depth[i] >= 0 {
			c++
		}
	}
	return c
}

// PostOrder returns the reachable nodes so that every node appears after
// all of its children (leaves first, root last).
func (t *Tree) PostOrder() []topology.NodeID {
	out := make([]topology.NodeID, 0, len(t.Parent))
	var walk func(u topology.NodeID)
	walk = func(u topology.NodeID) {
		for _, c := range t.Children[u] {
			walk(c)
		}
		out = append(out, u)
	}
	walk(t.Root)
	return out
}

// Validate checks structural invariants: the parent of every reachable
// non-root node is reachable with depth one less, and descendant counts
// are consistent. It returns the first violation found.
func (t *Tree) Validate(neighbors [][]topology.NodeID) error {
	for i := range t.Parent {
		id := topology.NodeID(i)
		if id == t.Root {
			if t.Parent[i] != NoParent {
				return fmt.Errorf("routing: root %d has parent %d", id, t.Parent[i])
			}
			continue
		}
		if !t.Reachable(id) {
			continue
		}
		p := t.Parent[i]
		if p == NoParent {
			return fmt.Errorf("routing: reachable node %d has no parent", id)
		}
		if t.Depth[i] != t.Depth[p]+1 {
			return fmt.Errorf("routing: node %d depth %d but parent %d depth %d", id, t.Depth[i], p, t.Depth[p])
		}
		if neighbors != nil {
			found := false
			for _, v := range neighbors[id] {
				if v == p {
					found = true
					break
				}
			}
			if !found {
				return fmt.Errorf("routing: parent %d of node %d is not a neighbor", p, id)
			}
		}
	}
	return nil
}
