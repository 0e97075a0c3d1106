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
	// Children[i] lists the children of node i, ascending; nil for a
	// leaf. All lists are sub-slices of one shared array with cap == len,
	// so an append to one copies instead of writing into the next node's
	// list.
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
	return BuildTreeAvoiding(neighbors, root, nil)
}

// BuildTreeAvoiding constructs a minimum-hop tree like BuildTree but
// steers around avoided links: the reliable transport reports directed
// links whose retransmissions exhausted, and the rebuild prefers parents
// reachable without them. Avoided links are used only as a last resort,
// to attach nodes that have no other path — connectivity beats link
// quality. A nil avoid is BuildTree.
func BuildTreeAvoiding(neighbors [][]topology.NodeID, root topology.NodeID, avoid func(parent, child topology.NodeID) bool) *Tree {
	n := len(neighbors)
	parent := make([]topology.NodeID, n)
	depth := make([]int, n)
	for i := range parent {
		parent[i] = NoParent
		depth[i] = -1
	}
	depth[root] = 0
	grow(parent, depth, neighbors, avoid)
	return assemble(parent, depth, root)
}

// grow is the one breadth-first construction behind every tree this
// package builds or repairs. The nodes that have a depth are the tree so
// far; grow gives every other node it can reach over the neighbor lists a
// parent and the depth parent+1, in two passes. Pass 1 expands from the
// tree in (depth, id) order over the links avoid does not refuse. Pass 2
// continues from everything reached, again in (depth, id) order, over any
// link: a node whose only way in is a refused link is still attached,
// because connectivity beats link quality. A nil avoid refuses nothing,
// which leaves pass 2 nothing to do. Neighbor lists are symmetric, so a
// node with no neighbors of its own is never attached.
func grow(parent []topology.NodeID, depth []int, neighbors [][]topology.NodeID, avoid func(parent, child topology.NodeID) bool) {
	queue := make([]topology.NodeID, 0, len(depth))
	for i, d := range depth {
		if d >= 0 {
			queue = append(queue, topology.NodeID(i))
		}
	}
	byDepth := func() {
		sort.Slice(queue, func(i, k int) bool {
			if depth[queue[i]] != depth[queue[k]] {
				return depth[queue[i]] < depth[queue[k]]
			}
			return queue[i] < queue[k]
		})
	}
	// expand is a FIFO over queue that appends what it attaches, so on
	// return queue holds every node reached so far.
	expand := func(refuse func(parent, child topology.NodeID) bool) {
		for head := 0; head < len(queue); head++ {
			u := queue[head]
			for _, v := range neighbors[u] {
				if depth[v] == -1 && (refuse == nil || !refuse(u, v)) {
					parent[v] = u
					depth[v] = depth[u] + 1
					queue = append(queue, v)
				}
			}
		}
	}
	byDepth()
	expand(avoid)
	if avoid == nil {
		return
	}
	byDepth()
	expand(nil)
}

// assemble completes a Tree around its parent vector: ascending children
// lists, the maximum depth, descendant counts and the level index. A nil
// depth is derived by walking down from the root, so nodes on a parent
// cycle or below an unreachable node keep depth -1.
func assemble(parent []topology.NodeID, depth []int, root topology.NodeID) *Tree {
	n := len(parent)
	t := &Tree{
		Parent:      parent,
		Children:    make([][]topology.NodeID, n),
		Depth:       depth,
		Descendants: make([]int, n),
		Root:        root,
	}
	// A count per parent, a prefix sum and one flat array, like byDepth in
	// finish; walking the ids upwards leaves every list ascending.
	off := make([]int32, n+1)
	for i, p := range parent {
		if topology.NodeID(i) != root && p != NoParent {
			off[p+1]++
		}
	}
	for i := 1; i <= n; i++ {
		off[i] += off[i-1]
	}
	flat := make([]topology.NodeID, off[n])
	for i, p := range parent {
		if topology.NodeID(i) != root && p != NoParent {
			flat[off[p]] = topology.NodeID(i)
			off[p]++
		}
	}
	// off[u] now ends u's list and off[u-1] starts it.
	for u := n - 1; u >= 0; u-- {
		a := int32(0)
		if u > 0 {
			a = off[u-1]
		}
		if b := off[u]; a < b {
			t.Children[u] = flat[a:b:b]
		}
	}
	if t.Depth == nil {
		t.Depth = make([]int, n)
		for i := range t.Depth {
			t.Depth[i] = -1
		}
		t.Depth[root] = 0
		queue := []topology.NodeID{root}
		for head := 0; head < len(queue); head++ {
			u := queue[head]
			for _, v := range t.Children[u] {
				t.Depth[v] = t.Depth[u] + 1
				queue = append(queue, v)
			}
		}
	}
	for _, d := range t.Depth {
		if d > t.MaxDepth {
			t.MaxDepth = d
		}
	}
	t.finish()
	return t
}

// FromParents builds a Tree from a parent vector (used to snapshot the
// beacon protocol's state). Unreachable nodes keep Depth -1.
func FromParents(parent []topology.NodeID, root topology.NodeID) (*Tree, error) {
	for i, p := range parent {
		if topology.NodeID(i) != root && p != NoParent && (p < 0 || int(p) >= len(parent)) {
			return nil, fmt.Errorf("routing: node %d has out-of-range parent %d", i, p)
		}
	}
	return assemble(append([]topology.NodeID(nil), parent...), nil, root), nil
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

// Path returns the tree path from the root to id, both included; nil when
// id is unreachable.
func (t *Tree) Path(id topology.NodeID) []topology.NodeID {
	if !t.Reachable(id) {
		return nil
	}
	path := make([]topology.NodeID, t.Depth[id]+1)
	for i, v := len(path)-1, id; i >= 0; i, v = i-1, t.Parent[v] {
		path[i] = v
	}
	return path
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
