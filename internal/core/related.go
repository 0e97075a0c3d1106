package core

import (
	"fmt"
	"math"

	"sensjoin/internal/geom"
	"sensjoin/internal/netsim"
	"sensjoin/internal/quadtree"
	"sensjoin/internal/query"
	"sensjoin/internal/routing"
	"sensjoin/internal/topology"
	"sensjoin/internal/zorder"
)

// Related-work baselines (paper §II). The paper states that "the
// external join outperforms the specialized join methods mentioned in
// Section II in each of our experiments" because those methods need very
// specific scenarios. These implementations let the harness verify that
// claim — and exhibit the niches where the specialized methods do win.

// Accounting phases of the related-work baselines.
const (
	PhaseMediatedCollect = "mediated-collect"
	PhaseMediatedResult  = "mediated-result"
	PhaseSemiCollectA    = "semi-collect-a"
	PhaseSemiFlood       = "semi-flood"
	PhaseSemiCollectB    = "semi-collect-b"
)

// MediatedPhases lists the phases of the mediated join.
var MediatedPhases = []string{PhaseMediatedCollect, PhaseMediatedResult}

// SemiJoinPhases lists the phases of the in-network semi-join.
var SemiJoinPhases = []string{PhaseSemiCollectA, PhaseSemiFlood, PhaseSemiCollectB}

// waveNode is one node's state in a collection wave. A relay does not
// copy its subtree's tuples from message to message: it notes who it
// heard from and how many bytes they announced, and ships that sum plus
// its own tuple. The root lists the tuples once, from the notes (gather).
type waveNode struct {
	children []topology.NodeID // senders heard from, in arrival order
	bytes    int               // wire size of what they sent
	own      bool              // the node's own tuple went out behind theirs
}

// wave is one wave's per-node state, and the payload of its messages: a
// delivery still in flight from an earlier wave is not one of its children.
type wave struct{ nodes []waveNode }

// gather appends the tuples node id forwarded, in the order the copying
// relay produced them: each child's subtree in arrival order, the own
// tuple last.
func (w *wave) gather(out []finalTuple, p *plan, id topology.NodeID) []finalTuple {
	nd := &w.nodes[id]
	for _, c := range nd.children {
		out = w.gather(out, p, c)
	}
	if nd.own {
		out = append(out, p.tuple(id))
	}
	return out
}

// collectWave runs a TAG-style collection of complete tuples along an
// arbitrary tree: every member node ships its tuple toward the root,
// relays aggregate. It returns the tuples gathered at the root. The
// handler is installed for the wave's duration.
func collectWave(x *Exec, p *plan, tree *routing.Tree, phase string, include func(topology.NodeID) bool) []finalTuple {
	n := x.Net.N()
	start := x.Sim.Now()
	slot := collectionSlot(x, p)
	w := &wave{nodes: borrow(&x.run().wave, n)}
	defer giveBack(x, &x.run().wave, w.nodes)
	x.Net.SetHandler(func(id topology.NodeID, m netsim.Message) {
		if m.Kind != kindFinal || m.Payload != any(w) {
			return
		}
		nd := &w.nodes[id]
		nd.children = append(nd.children, m.Src)
		nd.bytes += m.Size
	})
	defer x.Net.SetHandler(nil)
	send := func(id topology.NodeID) {
		nd := &w.nodes[id]
		size := nd.bytes
		if p.nodes[id].flags != 0 && (include == nil || include(id)) {
			nd.own = true
			size += p.nodes[id].tupleBytes
		}
		if len(nd.children) == 0 && !nd.own {
			return
		}
		x.Net.Send(netsim.Message{
			Kind: kindFinal, Src: id, Dst: tree.Parent[id],
			Phase: phase, Size: size, Payload: w,
		})
	}
	// Nodes at depth d transmit in slot MaxDepth-d: one queue entry per
	// tree level.
	for d := 1; d <= tree.MaxDepth; d++ {
		x.Sim.ScheduleNodes(tree.Root, tree.Level(d), start+float64(tree.MaxDepth-d)*slot, send)
	}
	x.Sim.RunUntil(start + float64(tree.MaxDepth+1)*slot)
	// At most one tuple per member node can arrive.
	return w.gather(make([]finalTuple, 0, p.members), p, tree.Root)
}

// shortestPath returns the hop path from a to b over live links.
func shortestPath(x *Exec, a, b topology.NodeID) ([]topology.NodeID, error) {
	nb := x.Net.LiveNeighbors()
	prev := make([]topology.NodeID, len(nb))
	for i := range prev {
		prev[i] = -2
	}
	prev[a] = -1
	queue := []topology.NodeID{a}
	for len(queue) > 0 && prev[b] == -2 {
		u := queue[0]
		queue = queue[1:]
		for _, v := range nb[u] {
			if prev[v] == -2 {
				prev[v] = u
				queue = append(queue, v)
			}
		}
	}
	if prev[b] == -2 {
		return nil, fmt.Errorf("core: no path from %d to %d", a, b)
	}
	var path []topology.NodeID
	for v := b; v != -1; v = prev[v] {
		path = append(path, v)
	}
	for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
		path[i], path[j] = path[j], path[i]
	}
	return path, nil
}

// Mediated is the "mediated join" of Coman et al. ([8], §II): all input
// tuples travel to a mediator node inside the network (the member
// centroid), the join is computed there, and the result rows travel to
// the base station. It is only efficient when the input relations sit in
// small regions near each other (relative to the base station) and the
// join is highly selective — exactly the niche the paper describes.
type Mediated struct {
	// Mediator fixes the mediator node; 0 selects the node closest to
	// the member centroid.
	Mediator topology.NodeID
}

// Name implements Method.
func (Mediated) Name() string { return "mediated-join" }

// Phases implements Method.
func (Mediated) Phases() []string { return MediatedPhases }

// Run implements Method.
func (m Mediated) Run(x *Exec) (*Result, error) {
	if err := validateAliasCount(x); err != nil {
		return nil, err
	}
	p, err := buildPlan(x)
	if err != nil {
		return nil, err
	}
	start := x.Sim.Now()

	mediator := m.Mediator
	if mediator == 0 {
		mediator = memberCentroidNode(x, p)
	}
	medTree := routing.BuildTree(x.Net.LiveNeighbors(), mediator)

	// Phase 1: collect every member tuple at the mediator.
	tuples := collectWave(x, p, medTree, PhaseMediatedCollect, nil)
	if p.nodes[mediator].flags != 0 {
		tuples = append(tuples, p.tuple(mediator))
	}

	// Phase 2: join at the mediator; ship the result rows to the base
	// station hop by hop. A mediator cut off from the base station (churn)
	// holds rows that never arrive: every member's data is missing there.
	rows, contrib := exactJoin(x, tuples)
	partitioned := false
	if len(rows) > 0 && mediator != topology.BaseStation {
		if path, err := shortestPath(x, mediator, topology.BaseStation); err != nil {
			rows, contrib, tuples, partitioned = nil, nil, nil, true
		} else {
			rowBytes := len(x.Query.Select) * 2
			size := len(rows) * rowBytes
			for i := 0; i+1 < len(path); i++ {
				x.Net.Send(netsim.Message{
					Kind: kindResult, Src: path[i], Dst: path[i+1],
					Phase: PhaseMediatedResult, Size: size, Payload: nil,
				})
			}
		}
	}
	x.Sim.Run()
	res := &Result{
		Columns:           columnsOf(x.Query),
		Rows:              rows,
		ContributingNodes: len(contrib),
		MemberNodes:       p.members,
		Complete:          len(tuples) == p.members,
		ResponseTime:      x.Sim.Now() - start,
	}
	if !res.Complete {
		annotateIncomplete(x, missingFrom(memberSet(p), tupleIndex(tuples)), res)
		if partitioned {
			res.IncompleteReason = ReasonPartition
		}
	}
	return res, nil
}

// memberCentroidNode picks the member node nearest to the centroid of
// all member positions.
func memberCentroidNode(x *Exec, p *plan) topology.NodeID {
	var cx, cy float64
	count := 0
	for id, nd := range p.nodes {
		if nd.flags != 0 {
			cx += x.Dep.Pos[id].X
			cy += x.Dep.Pos[id].Y
			count++
		}
	}
	if count == 0 {
		return topology.BaseStation
	}
	c := geom.Point{X: cx / float64(count), Y: cy / float64(count)}
	best := topology.BaseStation
	bestD := math.Inf(1)
	for id, nd := range p.nodes {
		if nd.flags == 0 {
			continue
		}
		if d := geom.Dist2(x.Dep.Pos[id], c); d < bestD {
			bestD = d
			best = topology.NodeID(id)
		}
	}
	return best
}

// SemiJoin is the in-network semi-join in the style of Coman et al.'s
// second method and Yu et al. [9] (§II): the join-attribute values of
// one relation are collected and broadcast over the nodes of the other
// relation, which then ship only their matching tuples; the first
// relation's tuples are shipped in full. SENS-Join differs by filtering
// *both* relations and by its compact pre-computation.
type SemiJoin struct {
	// FilterSide is the FROM index whose join-attribute values act as
	// the filter (default 0: relation A filters relation B).
	FilterSide int
}

// Name implements Method.
func (SemiJoin) Name() string { return "semi-join" }

// Phases implements Method.
func (SemiJoin) Phases() []string { return SemiJoinPhases }

// Run implements Method.
func (s SemiJoin) Run(x *Exec) (*Result, error) {
	if err := validateAliasCount(x); err != nil {
		return nil, err
	}
	if len(x.Query.From) != 2 {
		return nil, fmt.Errorf("core: semi-join handles exactly two relations, got %d", len(x.Query.From))
	}
	p, err := buildPlan(x)
	if err != nil {
		return nil, err
	}
	if p.grid == nil {
		return nil, fmt.Errorf("core: query has no join attributes; semi-join needs join conditions")
	}
	start := x.Sim.Now()
	n := len(x.Query.From)
	aSide := s.FilterSide
	bSide := 1 - aSide
	aFlag := zorder.FlagFor(aSide, n)
	bFlag := zorder.FlagFor(bSide, n)

	// Phase 1: relation A's complete tuples to the base station (they
	// are all needed for the final join anyway).
	aTuples := collectWave(x, p, x.Tree, PhaseSemiCollectA, func(id topology.NodeID) bool {
		return p.nodes[id].flags&aFlag != 0
	})

	// The filter: A's join-attribute keys, re-flagged to the A side
	// only, deduplicated and quadtree-encoded for the flood.
	var aKeys []zorder.Key
	for _, t := range aTuples {
		if t.flags&aFlag != 0 {
			aKeys = append(aKeys, p.grid.WithFlags(p.keyOf(t), aFlag))
		}
	}
	aKeys = quadtree.NormalizeKeys(aKeys)
	floodSize := p.codec().SizeBytes(aKeys)

	// Phase 2: flood A's join-attribute values over the whole network
	// (the semi-join has no subtree knowledge to prune with).
	if len(aKeys) > 0 {
		seen := make([]bool, x.Net.N())
		x.Net.SetHandler(func(id topology.NodeID, m netsim.Message) {
			if m.Kind != kindFilter || seen[id] {
				return
			}
			seen[id] = true
			x.Net.Send(netsim.Message{
				Kind: kindFilter, Src: id, Dst: netsim.BroadcastID,
				Phase: PhaseSemiFlood, Size: floodSize,
			})
		})
		seen[topology.BaseStation] = true
		x.Net.Send(netsim.Message{
			Kind: kindFilter, Src: topology.BaseStation, Dst: netsim.BroadcastID,
			Phase: PhaseSemiFlood, Size: floodSize,
		})
		x.Sim.Run()
		x.Net.SetHandler(nil)
	}

	// Phase 3: B nodes whose key possibly matches some A key ship their
	// tuples. Nodes that already shipped as members of A (self-joins)
	// are excluded: their tuples sit at the base station. The match
	// check mirrors the base station's tri-state join.
	matches := func(id topology.NodeID) bool {
		nd := p.nodes[id]
		if nd.flags&bFlag == 0 || nd.flags&aFlag != 0 {
			return false
		}
		return semiMatches(p, nd.key, aKeys, aSide, bSide)
	}
	bTuples := collectWave(x, p, x.Tree, PhaseSemiCollectB, matches)

	all := append(append([]finalTuple(nil), aTuples...), bTuples...)
	rows, contrib := exactJoin(x, all)
	// Complete means every tuple the method set out to collect arrived:
	// all of A, and every B tuple that matches an A key.
	needed := make(map[topology.NodeID]bool)
	for i, nd := range p.nodes {
		if id := topology.NodeID(i); nd.flags&aFlag != 0 || matches(id) {
			needed[id] = true
		}
	}
	missing := missingFrom(needed, tupleIndex(all))
	res := &Result{
		Columns:           columnsOf(x.Query),
		Rows:              rows,
		ContributingNodes: len(contrib),
		MemberNodes:       p.members,
		Complete:          len(missing) == 0,
		ResponseTime:      x.Sim.Now() - start,
	}
	if !res.Complete {
		annotateIncomplete(x, missing, res)
	}
	return res, nil
}

// semiMatches checks whether a B-side key possibly joins any A-side key
// under the query's join conditions (tri-state, like the base station).
func semiMatches(p *plan, bKey zorder.Key, aKeys []zorder.Key, aSide, bSide int) bool {
	x := p.x
	assignment := make([]zorder.Key, len(x.Query.From))
	benv := query.CellEnv{Lookup: func(rel int, name string) query.Interval {
		return p.cellOf(assignment[rel], name)
	}}
	assignment[bSide] = bKey
	for _, ak := range aKeys {
		assignment[aSide] = ak
		ok := true
		for _, c := range x.Analysis.JoinConds {
			if !c.Truth(benv).Possible() {
				ok = false
				break
			}
		}
		if ok {
			return true
		}
	}
	return false
}
