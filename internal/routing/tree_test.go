package routing

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"sensjoin/internal/geom"
	"sensjoin/internal/topology"
)

func deployment(t *testing.T, seed int64, n int, side float64) *topology.Deployment {
	t.Helper()
	d, err := topology.Generate(topology.Config{
		Nodes: n, Area: geom.Square(side), Range: 50, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestBuildTreeSpanning(t *testing.T) {
	d := deployment(t, 1, 300, 500)
	tr := BuildTree(d.Neighbors, topology.BaseStation)
	if tr.ReachableCount() != d.N() {
		t.Fatalf("tree reaches %d of %d nodes", tr.ReachableCount(), d.N())
	}
	if err := tr.Validate(d.Neighbors); err != nil {
		t.Fatal(err)
	}
}

func TestBuildTreeMinHop(t *testing.T) {
	// BFS depths are the true minimum hop counts; verify against an
	// independent Bellman-Ford relaxation.
	d := deployment(t, 2, 200, 400)
	tr := BuildTree(d.Neighbors, topology.BaseStation)
	n := d.N()
	dist := make([]int, n)
	for i := range dist {
		dist[i] = 1 << 30
	}
	dist[0] = 0
	for iter := 0; iter < n; iter++ {
		changed := false
		for u := 0; u < n; u++ {
			for _, v := range d.Neighbors[u] {
				if dist[u]+1 < dist[v] {
					dist[v] = dist[u] + 1
					changed = true
				}
			}
		}
		if !changed {
			break
		}
	}
	for i := 0; i < n; i++ {
		if tr.Depth[i] != dist[i] {
			t.Fatalf("node %d: tree depth %d, true min-hop %d", i, tr.Depth[i], dist[i])
		}
	}
}

func TestPostOrderProperty(t *testing.T) {
	d := deployment(t, 3, 150, 350)
	tr := BuildTree(d.Neighbors, topology.BaseStation)
	seen := make(map[topology.NodeID]int)
	for idx, u := range tr.PostOrder() {
		seen[u] = idx
	}
	if len(seen) != tr.ReachableCount() {
		t.Fatalf("post-order visits %d nodes, want %d", len(seen), tr.ReachableCount())
	}
	for u, pidx := range seen {
		for _, c := range tr.Children[u] {
			if seen[c] > pidx {
				t.Fatalf("child %d after parent %d in post-order", c, u)
			}
		}
	}
	// Root must come last.
	if order := tr.PostOrder(); order[len(order)-1] != tr.Root {
		t.Fatal("root not last in post-order")
	}
}

func TestDescendantCounts(t *testing.T) {
	d := deployment(t, 5, 150, 350)
	tr := BuildTree(d.Neighbors, topology.BaseStation)
	// Root's descendants = all other reachable nodes.
	if tr.Descendants[tr.Root] != tr.ReachableCount()-1 {
		t.Fatalf("root descendants = %d, want %d", tr.Descendants[tr.Root], tr.ReachableCount()-1)
	}
	for u := range tr.Children {
		sum := 0
		for _, c := range tr.Children[u] {
			sum += 1 + tr.Descendants[c]
		}
		if tr.Descendants[u] != sum {
			t.Fatalf("node %d descendants inconsistent", u)
		}
	}
	// Leaves have zero descendants.
	for u := range tr.Children {
		if len(tr.Children[u]) == 0 && tr.Descendants[u] != 0 {
			t.Fatalf("leaf %d has %d descendants", u, tr.Descendants[u])
		}
	}
}

func TestFromParentsRoundtrip(t *testing.T) {
	d := deployment(t, 6, 120, 300)
	tr := BuildTree(d.Neighbors, topology.BaseStation)
	tr2, err := FromParents(tr.Parent, topology.BaseStation)
	if err != nil {
		t.Fatal(err)
	}
	for i := range tr.Depth {
		if tr.Depth[i] != tr2.Depth[i] {
			t.Fatalf("node %d: depth %d vs %d", i, tr.Depth[i], tr2.Depth[i])
		}
		if tr.Descendants[i] != tr2.Descendants[i] {
			t.Fatalf("node %d: descendants differ", i)
		}
	}
	if tr2.MaxDepth != tr.MaxDepth {
		t.Fatal("max depth differs after roundtrip")
	}
}

func TestFromParentsRejectsOutOfRange(t *testing.T) {
	if _, err := FromParents([]topology.NodeID{NoParent, 99}, 0); err == nil {
		t.Fatal("expected error for out-of-range parent")
	}
}

func TestFromParentsCycleUnreachable(t *testing.T) {
	// 1 and 2 point at each other: both must stay unreachable, no hang.
	tr, err := FromParents([]topology.NodeID{NoParent, 2, 1, 0}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Reachable(1) || tr.Reachable(2) {
		t.Fatal("cycle nodes must be unreachable")
	}
	if !tr.Reachable(3) {
		t.Fatal("node 3 hangs off the root and must be reachable")
	}
}

// TestChildrenMatchReference: over random parent vectors — cycles,
// orphans, self-parents and the root anywhere — Children equals lists
// appended per node in id order (nil for a leaf), and no list has spare
// capacity an append could write into the next node's list through.
func TestChildrenMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for iter := 0; iter < 200; iter++ {
		n := 1 + rng.Intn(300)
		root := topology.NodeID(rng.Intn(n))
		parent := make([]topology.NodeID, n)
		for i := range parent {
			parent[i] = topology.NodeID(rng.Intn(n + n/4)) // past n-1 means NoParent
			if int(parent[i]) >= n || topology.NodeID(i) == root {
				parent[i] = NoParent
			}
		}
		tr, err := FromParents(parent, root)
		if err != nil {
			t.Fatal(err)
		}
		want := make([][]topology.NodeID, n)
		for i, p := range parent {
			if topology.NodeID(i) != root && p != NoParent {
				want[p] = append(want[p], topology.NodeID(i))
			}
		}
		if !reflect.DeepEqual(tr.Children, want) {
			t.Fatalf("iteration %d: children %v, want %v", iter, tr.Children, want)
		}
		for u, c := range tr.Children {
			if cap(c) != len(c) {
				t.Fatalf("iteration %d: node %d's children have cap %d, len %d", iter, u, cap(c), len(c))
			}
		}
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	d := deployment(t, 7, 100, 300)
	tr := BuildTree(d.Neighbors, topology.BaseStation)
	tr.Depth[5] += 3
	if err := tr.Validate(d.Neighbors); err == nil {
		t.Fatal("Validate must catch a corrupted depth")
	}
}

func TestQuickTreeInvariants(t *testing.T) {
	f := func(seed int64) bool {
		d, err := topology.Generate(topology.Config{
			Nodes: 80, Area: geom.Square(260), Range: 50, Seed: seed % 10000,
		})
		if err != nil {
			return true // skip unlucky sparse draws
		}
		tr := BuildTree(d.Neighbors, topology.BaseStation)
		return tr.Validate(d.Neighbors) == nil && tr.ReachableCount() == d.N()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestBuildTreeAvoidingSkipsBadLinks(t *testing.T) {
	d := deployment(t, 3, 250, 450)
	base := BuildTree(d.Neighbors, topology.BaseStation)
	// Avoid some tree edge whose child has an alternative neighbor at the
	// parent's depth: the rebuilt tree must not use it and must stay a
	// valid spanning min-structure.
	var child, parent topology.NodeID = -1, -1
	for i := 1; i < d.N(); i++ {
		id := topology.NodeID(i)
		p := base.Parent[id]
		if p == NoParent {
			continue
		}
		for _, nb := range d.Neighbors[id] {
			if nb != p && base.Depth[nb] == base.Depth[p] {
				child, parent = id, p
			}
		}
		if child >= 0 {
			break
		}
	}
	if child < 0 {
		t.Skip("no avoidable edge with an alternative")
	}
	avoid := func(u, v topology.NodeID) bool {
		return (u == parent && v == child) || (u == child && v == parent)
	}
	tr := BuildTreeAvoiding(d.Neighbors, topology.BaseStation, avoid)
	if tr.Parent[child] == parent {
		t.Fatalf("avoided link %d-%d still used although node %d has an equal-depth alternative",
			parent, child, child)
	}
	if tr.ReachableCount() != base.ReachableCount() {
		t.Fatalf("avoiding one redundant link lost connectivity: %d vs %d nodes",
			tr.ReachableCount(), base.ReachableCount())
	}
	if err := tr.Validate(d.Neighbors); err != nil {
		t.Fatal(err)
	}
}

func TestBuildTreeAvoidingLastResort(t *testing.T) {
	// A 3-node chain 0-1-2: avoiding the only link to node 1 must still
	// attach it (connectivity beats link quality).
	neighbors := [][]topology.NodeID{{1}, {0, 2}, {1}}
	avoid := func(u, v topology.NodeID) bool { return u == 0 && v == 1 }
	tr := BuildTreeAvoiding(neighbors, 0, avoid)
	if !tr.Reachable(1) || !tr.Reachable(2) {
		t.Fatalf("avoided-but-only link not used as last resort: depths %v", tr.Depth)
	}
	if err := tr.Validate(neighbors); err != nil {
		t.Fatal(err)
	}
	if tr.Parent[1] != 0 || tr.Parent[2] != 1 {
		t.Fatalf("unexpected parents %v", tr.Parent)
	}
}

func TestBuildTreeAvoidingNilMatchesBuildTree(t *testing.T) {
	d := deployment(t, 4, 150, 350)
	a := BuildTree(d.Neighbors, topology.BaseStation)
	b := BuildTreeAvoiding(d.Neighbors, topology.BaseStation, nil)
	for i := range a.Parent {
		if a.Parent[i] != b.Parent[i] || a.Depth[i] != b.Depth[i] {
			t.Fatalf("node %d differs: parent %d/%d depth %d/%d",
				i, a.Parent[i], b.Parent[i], a.Depth[i], b.Depth[i])
		}
	}
}

// checkLevels asserts the by-depth index: every reachable node but the
// root is in exactly one level, the one of its depth, levels ascend by id,
// and an unreachable node is in none.
func checkLevels(t *testing.T, what string, tr *Tree) {
	t.Helper()
	listed := make([]int, len(tr.Parent))
	for d := 1; d <= tr.MaxDepth; d++ {
		ids := tr.Level(d)
		if len(ids) == 0 {
			t.Fatalf("%s: level %d of %d is empty", what, d, tr.MaxDepth)
		}
		for k, id := range ids {
			if tr.Depth[id] != d {
				t.Fatalf("%s: node %d of depth %d listed at level %d", what, id, tr.Depth[id], d)
			}
			if k > 0 && ids[k-1] >= id {
				t.Fatalf("%s: level %d is not ascending: %d before %d", what, d, ids[k-1], id)
			}
			listed[id]++
		}
	}
	for i, c := range listed {
		id := topology.NodeID(i)
		want := 1
		if id == tr.Root || !tr.Reachable(id) {
			want = 0
		}
		if c != want {
			t.Fatalf("%s: node %d (depth %d, root %d) is listed %d times, want %d", what, id, tr.Depth[i], tr.Root, c, want)
		}
	}
}

// Every constructor leaves the level index in place: over random
// deployments with some nodes cut off, rooted at the base station and
// away from it.
func TestLevelsPartitionReachableNodes(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		n := 150
		if seed == 6 {
			n = 5000 // above BuildTreeParallel's sequential threshold
		}
		d, err := topology.Generate(topology.Config{
			Nodes: n, Area: topology.ScaledArea(n), Range: 50, Seed: seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		// Cut every 17th node off: it keeps its id and has no links.
		nb := make([][]topology.NodeID, d.N())
		cut := func(id topology.NodeID) bool { return id%17 == 5 }
		for u := range nb {
			for _, v := range d.Neighbors[u] {
				if !cut(topology.NodeID(u)) && !cut(v) {
					nb[u] = append(nb[u], v)
				}
			}
		}
		for _, root := range []topology.NodeID{topology.BaseStation, topology.NodeID(n / 2)} {
			what := func(s string) string { return fmt.Sprintf("seed %d, root %d: %s", seed, root, s) }
			tr := BuildTree(nb, root)
			if tr.Reachable(5) || tr.ReachableCount() < n/2 {
				t.Fatalf("%s", what("the fixture lost its shape"))
			}
			checkLevels(t, what("BuildTree"), tr)
			checkLevels(t, what("BuildTreeParallel"), BuildTreeParallel(nb, root, 4))
			odd := func(p, c topology.NodeID) bool { return (p+c)%3 == 0 }
			checkLevels(t, what("BuildTreeAvoiding"), BuildTreeAvoiding(nb, root, odd))

			parents := append([]topology.NodeID(nil), tr.Parent...)
			for i := range parents {
				if i%11 == 3 {
					parents[i] = NoParent // severs the whole subtree
				}
			}
			fp, err := FromParents(parents, root)
			if err != nil {
				t.Fatal(err)
			}
			checkLevels(t, what("FromParents"), fp)

			rep, moved := Repair(tr, nb, odd)
			if len(moved) == 0 {
				t.Fatalf("%s", what("Repair had nothing to do"))
			}
			checkLevels(t, what("Repair"), rep)
		}
	}
}

// Path is the root-to-node walk both scoped recovery's re-requests and
// the mediated join's result shipping follow: the root alone for the
// root, each node's parent before it, and nil off the tree.
func TestTreePath(t *testing.T) {
	d := deployment(t, 1, 300, 500)
	for _, root := range []topology.NodeID{topology.BaseStation, 17} {
		tr := BuildTree(d.Neighbors, root)
		if got := tr.Path(root); !reflect.DeepEqual(got, []topology.NodeID{root}) {
			t.Fatalf("root %d: Path(root) = %v", root, got)
		}
		deep := root
		for i := range tr.Depth {
			if tr.Depth[i] > tr.Depth[deep] {
				deep = topology.NodeID(i)
			}
		}
		path := tr.Path(deep)
		if len(path) != tr.Depth[deep]+1 || path[0] != root || path[len(path)-1] != deep {
			t.Fatalf("root %d: Path(%d) = %v at depth %d", root, deep, path, tr.Depth[deep])
		}
		for i := 1; i < len(path); i++ {
			if tr.Parent[path[i]] != path[i-1] {
				t.Fatalf("root %d: Path(%d)[%d] = %d, whose parent is %d, not %d",
					root, deep, i, path[i], tr.Parent[path[i]], path[i-1])
			}
		}
	}
	// Node 3 hangs off nothing, nodes 4 and 5 are each other's parent.
	tr, err := FromParents([]topology.NodeID{NoParent, 0, 1, NoParent, 5, 4}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := tr.Path(2); !reflect.DeepEqual(got, []topology.NodeID{0, 1, 2}) {
		t.Fatalf("Path(2) = %v, want [0 1 2]", got)
	}
	for _, id := range []topology.NodeID{3, 4, 5} {
		if got := tr.Path(id); got != nil {
			t.Fatalf("unreachable node %d: Path = %v, want nil", id, got)
		}
	}
}
