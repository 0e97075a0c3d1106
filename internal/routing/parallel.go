package routing

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"sensjoin/internal/topology"
)

// BuildTreeParallel constructs exactly the tree BuildTree builds, with
// the per-level BFS expansion spread over workers. Equality argument: in
// the sequential BFS, the parent of a node v is the earliest-processed
// frontier node that neighbors v, and the next level's processing order
// is "children of frontier node 0 ascending, then children of frontier
// node 1 ascending, ...". The parallel version reproduces both: workers
// race to claim each candidate with the minimum frontier rank
// (atomic-min), and the next frontier is the claimed nodes sorted by
// (parent rank, id). A 50k-node smoke test asserts deep equality against
// BuildTree.
func BuildTreeParallel(neighbors [][]topology.NodeID, root topology.NodeID, workers int) *Tree {
	n := len(neighbors)
	if workers <= 1 || n < 4096 {
		return BuildTree(neighbors, root)
	}
	parent := make([]topology.NodeID, n)
	depth := make([]int, n)
	for i := range parent {
		parent[i] = NoParent
		depth[i] = -1
	}
	depth[root] = 0
	// claim[v] is the minimum frontier rank that reached v this level;
	// stale values from earlier levels are harmless because a claimed
	// node's depth is set before the next level starts.
	claim := make([]int64, n)
	for i := range claim {
		claim[i] = math.MaxInt64
	}
	frontier := []topology.NodeID{root}
	cands := make([][]topology.NodeID, workers)
	level := 0
	for len(frontier) > 0 {
		expand := func(w, lo, hi int) {
			out := cands[w][:0]
			for r := lo; r < hi; r++ {
				u := frontier[r]
				for _, v := range neighbors[u] {
					if depth[v] != -1 {
						continue
					}
					for {
						old := atomic.LoadInt64(&claim[v])
						if int64(r) >= old {
							break
						}
						if atomic.CompareAndSwapInt64(&claim[v], old, int64(r)) {
							if old == math.MaxInt64 {
								out = append(out, v)
							}
							break
						}
					}
				}
			}
			cands[w] = out
		}
		if len(frontier) < 1024 {
			expand(0, 0, len(frontier))
			for w := 1; w < workers; w++ {
				cands[w] = cands[w][:0]
			}
		} else {
			var wg sync.WaitGroup
			chunk := (len(frontier) + workers - 1) / workers
			for w := 0; w < workers; w++ {
				lo := w * chunk
				hi := lo + chunk
				if lo > len(frontier) {
					lo = len(frontier)
				}
				if hi > len(frontier) {
					hi = len(frontier)
				}
				wg.Add(1)
				go func(w, lo, hi int) {
					defer wg.Done()
					expand(w, lo, hi)
				}(w, lo, hi)
			}
			wg.Wait()
		}
		var next []topology.NodeID
		for w := range cands {
			next = append(next, cands[w]...)
		}
		// A candidate can appear in several workers' lists when each saw
		// MaxInt64 before the other's CAS; sorting makes duplicates
		// adjacent and the dedup below drops them.
		sort.Slice(next, func(a, b int) bool {
			if claim[next[a]] != claim[next[b]] {
				return claim[next[a]] < claim[next[b]]
			}
			return next[a] < next[b]
		})
		dst := 0
		for _, v := range next {
			if dst > 0 && v == next[dst-1] {
				continue
			}
			depth[v] = level + 1
			parent[v] = frontier[claim[v]]
			claim[v] = math.MaxInt64
			next[dst] = v
			dst++
		}
		frontier = next[:dst]
		level++
	}
	return assemble(parent, depth, root)
}
