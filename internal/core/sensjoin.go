package core

import (
	"fmt"
	"sort"

	"sensjoin/internal/netsim"
	"sensjoin/internal/quadtree"
	"sensjoin/internal/topology"
	"sensjoin/internal/trace"
	"sensjoin/internal/zorder"
)

// Options tune the SENS-Join method. The zero value selects the paper's
// defaults.
type Options struct {
	// Dmax is the Treecut threshold in bytes (paper §IV-B: 30).
	Dmax int
	// FilterMemLimit bounds the stored subtree join-attribute structure
	// in bytes (paper §IV-C: 500); larger subtrees forward the filter
	// unpruned.
	FilterMemLimit int
	// Rep selects the join-attribute representation (default QuadRep).
	Rep Rep
	// DisableTreecut turns the Treecut mechanism off (ablation).
	DisableTreecut bool
	// DisableSelectiveForwarding makes every node forward the whole
	// filter (ablation).
	DisableSelectiveForwarding bool
	// DisableBandIndex forces the generic pairwise filter computation
	// at the base station instead of the band-join fast path.
	DisableBandIndex bool
}

func (o Options) withDefaults() Options {
	if o.Dmax == 0 {
		o.Dmax = 30
	}
	if o.FilterMemLimit == 0 {
		o.FilterMemLimit = 500
	}
	if o.Rep == nil {
		o.Rep = QuadRep{}
	}
	return o
}

// SENSJoin is the paper's method (§IV): a pre-computation collects
// join-attribute tuples at the base station (with Treecut), the base
// station joins them over quantized cells and disseminates the join
// filter (with Selective Filter Forwarding), and only matching complete
// tuples travel to the base station for the exact final join.
type SENSJoin struct {
	Options Options
	// cont holds the cross-round state of the incremental
	// filter-dissemination mode (NewContinuousSENSJoin); nil for
	// independent executions.
	cont *contState
	// Memory reports the per-node memory high-water marks of the last
	// execution (the paper's §VII memory-requirements trade-off).
	Memory MemoryReport
}

// MemoryReport captures what SENS-Join stores on the nodes: Treecut
// proxies hold complete tuples (bounded by Dmax per child, §IV-B) and
// Selective Filter Forwarding keeps the subtree's join-attribute
// structure (bounded by the memory limit, §IV-C).
type MemoryReport struct {
	// MaxProxyBytes is the largest complete-tuple store of any proxy.
	MaxProxyBytes int
	// MaxSubtreeBytes is the largest stored subtree structure.
	MaxSubtreeBytes int
	// OverflowNodes counts nodes whose subtree structure exceeded the
	// limit (they forward the filter unpruned instead of storing).
	OverflowNodes int
	// MaxFilterBytes is the largest filter payload any node received.
	MaxFilterBytes int
}

// NewSENSJoin returns the method with the paper's default parameters.
func NewSENSJoin() *SENSJoin { return &SENSJoin{} }

// Name implements Method.
func (s *SENSJoin) Name() string {
	o := s.Options.withDefaults()
	if _, ok := o.Rep.(QuadRep); !ok {
		return "sens-join[" + o.Rep.Name() + "]"
	}
	if s.cont != nil {
		return "sens-join[incremental]"
	}
	return "sens-join"
}

// Rounds reports the completed executions of a continuous method.
func (s *SENSJoin) Rounds() int {
	if s.cont == nil {
		return 0
	}
	return s.cont.Rounds
}

// Phases implements Method.
func (*SENSJoin) Phases() []string { return SENSPhases }

// sensNode is the per-node protocol state (Fig. 1's local variables);
// the flags sit together at the end so they share one word.
type sensNode struct {
	// Phase A inboxes.
	fullsIn  []finalTuple
	keysIn   []zorder.Key
	rawIn    int
	coverIn  int
	children []topology.NodeID
	// Outcome of phase A.
	activeChildren int
	subtreeKeys    []zorder.Key
	proxied        []finalTuple
	// Phase B outcome.
	matchedProxy []finalTuple
	// Phase C inbox.
	finalsIn []finalTuple
	// Memory accounting, folded into MemoryReport after the run. Keeping
	// it per node means handlers never touch method-level state, which is
	// what lets sharded regions run them in parallel.
	memProxyBytes   int
	memSubtreeBytes int
	memFilterBytes  int

	allFull        bool // phase A: every child sent complete tuples
	cut            bool // phase A: the node left the query after Treecut
	overflow       bool // phase A: subtree structure too large to keep
	gotFilter      bool // phase B
	ownMatch       bool // phase B
	childNeedsFull bool // phase B (incremental mode)
}

// onJoinAttrs files a child's join-attribute message (phase A).
func (st *sensNode) onJoinAttrs(m netsim.Message) {
	pl := m.Payload.(*jaPayload)
	st.keysIn = quadtree.UnionKeys(st.keysIn, pl.keys)
	st.rawIn += pl.rawCount
	st.coverIn += pl.covered
	st.allFull = false
	st.activeChildren++
	st.children = append(st.children, m.Src)
	st.childNeedsFull = st.childNeedsFull || pl.needFull
}

// fold raises the report's high-water marks to cover one node.
func (r *MemoryReport) fold(st *sensNode) {
	r.MaxProxyBytes = max(r.MaxProxyBytes, st.memProxyBytes)
	r.MaxSubtreeBytes = max(r.MaxSubtreeBytes, st.memSubtreeBytes)
	r.MaxFilterBytes = max(r.MaxFilterBytes, st.memFilterBytes)
	if st.overflow {
		r.OverflowNodes++
	}
}

// Run implements Method.
func (s *SENSJoin) Run(x *Exec) (*Result, error) {
	if err := validateAliasCount(x); err != nil {
		return nil, err
	}
	o := s.Options.withDefaults()
	p, err := buildPlan(x)
	if err != nil {
		return nil, err
	}
	if p.grid == nil {
		return nil, fmt.Errorf("core: query %q has no join attributes; SENS-Join needs join conditions", x.Query.String())
	}
	tree := x.Tree
	n := x.Net.N()
	start := x.Sim.Now()
	slotA, slotC := sensSlots(x, p)
	if s.cont != nil {
		s.cont = s.cont.ensure(n)
		s.cont.scratch.reset()
	}
	s.Memory = MemoryReport{}

	// Per-node state is on loan from the runner (runstate.go).
	states := borrow(&x.run().sens, n)
	defer giveBack(x, &x.run().sens, states)
	for i := range states {
		states[i].allFull = true
	}

	var standDown []topology.NodeID
	defer recordStandDowns(x, &standDown)()

	// Message handling is shared by all phases.
	x.Net.SetHandler(func(id topology.NodeID, m netsim.Message) {
		st := &states[id]
		if st.cut {
			return // the node exited the query after Treecut
		}
		switch m.Kind {
		case kindFullTuples:
			st.fullsIn = append(st.fullsIn, m.Payload.([]finalTuple)...)
		case kindJoinAttrs:
			st.onJoinAttrs(m)
		case kindFilter:
			// Filters travel down the tree: only the broadcast of
			// this node's parent applies; broadcasts overheard from
			// other neighbors concern their subtrees.
			if m.Src == x.Tree.Parent[id] {
				s.onFilter(x, p, o, id, st, m.Src, m.Payload.(*filterMsg))
			}
		case kindFinal:
			st.finalsIn = append(st.finalsIn, m.Payload.([]finalTuple)...)
		}
	})
	defer x.Net.SetHandler(nil)

	// Phase A: Join-Attribute-Collection, leaves first (Fig. 2).
	x.span(trace.KindPhaseStart, topology.BaseStation, -1, PhaseJACollect, 0)
	for i := 1; i < n; i++ {
		id := topology.NodeID(i)
		if !tree.Reachable(id) {
			continue
		}
		deadline := start + float64(tree.MaxDepth-tree.Depth[id])*slotA
		x.Sim.ScheduleNode(id, id, deadline, func() {
			s.forwardJoinAttrValues(x, p, o, id, &states[id])
		})
	}

	// The base station closes phase A, computes the filter and starts
	// phase B (Fig. 3); phase C deadlines are derived afterwards.
	var result *Result
	var gotTuples []finalTuple
	tA := start + float64(tree.MaxDepth+1)*slotA
	x.Sim.ScheduleNode(topology.BaseStation, topology.BaseStation, tA, func() {
		x.span(trace.KindPhaseEnd, topology.BaseStation, -1, PhaseJACollect, 0)
		x.span(trace.KindPhaseStart, topology.BaseStation, -1, PhaseFilterDissem, 0)
		bs := &states[topology.BaseStation]
		bsKeys := keySet{keys: bs.keysIn}
		for _, t := range bs.fullsIn {
			bsKeys.add(p.keyOf(t))
		}
		completeA := bs.coverIn+len(bs.fullsIn) == p.members
		filter := computeFilter(p, bsKeys.keys, !o.DisableBandIndex)
		filterBytes := o.Rep.SetBytes(p, filter)
		x.Metrics.observeFilter(len(filter), filterBytes)

		if len(filter) > 0 && bs.activeChildren > 0 {
			msg := s.buildFilterMsg(p, o, topology.BaseStation, filter, filterBytes, bs.childNeedsFull)
			s.sendFilter(x, topology.BaseStation, bs, msg)
		}

		// Phase C schedule: after the filter has fully propagated. tB is
		// computed from tA, the statically known time of this event, not
		// from the clock — under sharding there is no global "now" inside
		// a run (the values are identical: the classic engine sets the
		// clock to exactly tA here).
		slotB := x.Net.SlotFor(filterBytes + 32)
		tB := tA + float64(tree.MaxDepth+1)*slotB
		if x.Trace.Enabled() || x.Metrics != nil {
			// Scheduled first so the phase boundary precedes the deepest
			// nodes' phase-C transmissions at the same instant. Node-affine
			// to the base station: this runs inside an event handler, where
			// a sharded engine needs to know the executing region.
			x.Sim.ScheduleNode(topology.BaseStation, topology.BaseStation, tB, func() {
				x.span(trace.KindPhaseEnd, topology.BaseStation, -1, PhaseFilterDissem, 0)
				x.span(trace.KindPhaseStart, topology.BaseStation, -1, PhaseFinalCollect, 0)
			})
		}
		for i := 1; i < n; i++ {
			id := topology.NodeID(i)
			if !tree.Reachable(id) {
				continue
			}
			deadline := tB + float64(tree.MaxDepth-tree.Depth[id])*slotC
			x.Sim.ScheduleNode(topology.BaseStation, id, deadline, func() {
				s.forwardCompleteTuples(x, p, id, &states[id])
			})
		}
		tEnd := tB + float64(tree.MaxDepth+1)*slotC
		x.Sim.ScheduleNode(topology.BaseStation, topology.BaseStation, tEnd, func() {
			x.span(trace.KindPhaseEnd, topology.BaseStation, -1, PhaseFinalCollect, 0)
			bsT := &states[topology.BaseStation]
			tuples := append(append([]finalTuple(nil), bsT.fullsIn...), bsT.finalsIn...)
			gotTuples = tuples
			rows, contrib := exactJoin(x, tuples)
			result = &Result{
				Columns:           columnsOf(x.Query),
				Rows:              rows,
				ContributingNodes: len(contrib),
				MemberNodes:       p.members,
				Complete:          completeA && finalComplete(p, filter, tuples),
				ResponseTime:      tEnd - start,
			}
			if s.cont != nil {
				s.cont.Rounds++
			}
		})
	})
	x.Sim.Run()

	// Fold the per-node memory accounting into the report.
	for i := range states {
		s.Memory.fold(&states[i])
	}

	// Reliable transport: the base station knows which subtrees are
	// missing; re-request only those instead of re-executing the query.
	if x.Net.Reliable() {
		needed := contributorSet(x, p)
		have := tupleIndex(gotTuples)
		rounds, missing := runScopedRecovery(x, p, needed, have, standDown)
		finishReliable(x, p, result, have, missing, rounds, start)
	} else if result != nil && !result.Complete {
		annotateIncomplete(x, missingFrom(contributorSet(x, p), tupleIndex(gotTuples)), result)
	}
	return result, nil
}

// recordStandDowns appends to *standDown the addressee of every filter
// transfer that exhausts its retransmissions: the subtree below it may run
// phase C without a filter, so recovery re-collects it unconditionally.
// Only reliable transport gives up; the returned func ends the recording.
func recordStandDowns(x *Exec, standDown *[]topology.NodeID) (stop func()) {
	if !x.Net.Reliable() {
		return func() {}
	}
	x.Net.OnGiveUp(func(m netsim.Message, attempts int) {
		if m.Kind == kindFilter {
			*standDown = append(*standDown, m.Dst)
			x.span(trace.KindStandDown, m.Dst, m.Src, PhaseFilterDissem, attempts)
		}
	})
	return func() { x.Net.OnGiveUp(nil) }
}

// sendFilter disseminates a filter message to the node's active
// children: one local broadcast normally (the paper's model), one
// reliable unicast per child when hop-by-hop reliable transport is on —
// ACKs need a single addressee, and an unconfirmed child is exactly the
// stand-down signal scoped recovery keys on.
func (s *SENSJoin) sendFilter(x *Exec, id topology.NodeID, st *sensNode, msg *filterMsg) {
	if !x.Net.Reliable() {
		x.Net.Send(netsim.Message{
			Kind: kindFilter, Src: id, Dst: netsim.BroadcastID,
			Phase: PhaseFilterDissem, Size: msg.size, Payload: msg,
		})
		return
	}
	for _, c := range st.children {
		x.Net.Send(netsim.Message{
			Kind: kindFilter, Src: id, Dst: c,
			Phase: PhaseFilterDissem, Size: msg.size, Payload: msg,
		})
	}
}

// keySet grows a sorted key set by single keys. It starts as a borrowed
// slice that other state still references (a node's inbox, its stored
// subtree structure), so the first key that is actually new copies it —
// once, with room for a few more — and later ones shift in place; keys
// already present cost a binary search and nothing else.
type keySet struct {
	keys  []zorder.Key
	owned bool
}

func (s *keySet) add(k zorder.Key) {
	i := sort.Search(len(s.keys), func(j int) bool { return s.keys[j] >= k })
	if i < len(s.keys) && s.keys[i] == k {
		return
	}
	if !s.owned {
		s.keys = append(make([]zorder.Key, 0, len(s.keys)+4), s.keys...)
		s.owned = true
	}
	s.keys = append(s.keys, 0)
	copy(s.keys[i+1:], s.keys[i:])
	s.keys[i] = k
}

// forwardJoinAttrValues is Fig. 2 at one node's phase-A deadline.
func (s *SENSJoin) forwardJoinAttrValues(x *Exec, p *plan, o Options, id topology.NodeID, st *sensNode) {
	nd := &p.nodes[id]
	ownBytes := nd.tupleBytes // 0 for a non-member
	fullBytes := 0
	for _, t := range st.fullsIn {
		fullBytes += t.bytes
	}

	// Treecut (Fig. 2, lines 12-18): while the subtree's data is small
	// and entirely made of complete tuples, keep sending complete tuples.
	if !o.DisableTreecut && st.allFull && fullBytes+ownBytes <= o.Dmax {
		tuples := st.fullsIn
		if nd.flags != 0 {
			tuples = append(append([]finalTuple(nil), tuples...), p.tuple(id))
		}
		st.cut = true
		x.span(trace.KindTreecut, id, x.Tree.Parent[id], PhaseJACollect, len(tuples))
		if len(tuples) == 0 {
			return
		}
		x.Net.Send(netsim.Message{
			Kind: kindFullTuples, Src: id, Dst: x.Tree.Parent[id],
			Phase: PhaseJACollect, Size: fullBytes + ownBytes, Payload: tuples,
		})
		return
	}

	// Act as proxy (lines 20-27): store complete tuples and the
	// subtree's join-attribute structure, forward join-attribute tuples.
	st.proxied = st.fullsIn
	if len(st.proxied) > 0 {
		x.span(trace.KindProxy, id, -1, PhaseJACollect, len(st.proxied))
	}
	st.memProxyBytes = fullBytes
	inBytes := o.Rep.SetBytes(p, st.keysIn)
	if inBytes <= o.FilterMemLimit {
		st.subtreeKeys = st.keysIn
		st.memSubtreeBytes = inBytes
	} else {
		st.overflow = true
	}
	keys := keySet{keys: st.keysIn}
	for _, t := range st.proxied {
		keys.add(p.keyOf(t))
	}
	raw := st.rawIn + len(st.proxied)
	covered := st.coverIn + len(st.proxied)
	if nd.flags != 0 {
		keys.add(nd.key)
		raw++
		covered++
	}
	if len(keys.keys) == 0 {
		return // nothing anywhere in the subtree
	}
	pl := &jaPayload{keys: keys.keys, rawCount: raw, covered: covered}
	if !keys.owned {
		pl.keysBytes = inBytes // nothing was added: the set just sized
	}
	if s.cont != nil && int(id) < s.cont.n {
		pl.needFull = s.cont.needFull[id]
	}
	x.Net.Send(netsim.Message{
		Kind: kindJoinAttrs, Src: id, Dst: x.Tree.Parent[id],
		Phase: PhaseJACollect, Size: o.Rep.PayloadBytes(p, pl), Payload: pl,
	})
}

// onFilter is Fig. 3: intersect the filter with the stored subtree
// structure and forward only if the intersection is non-empty. In
// incremental mode the filter first has to be reconstructed from the
// cached previous round plus the received delta; on a cache mismatch the
// node falls back to assume-all for this round (see incremental.go).
func (s *SENSJoin) onFilter(x *Exec, p *plan, o Options, id topology.NodeID, st *sensNode, from topology.NodeID, msg *filterMsg) {
	if st.gotFilter {
		return // duplicate delivery
	}
	st.gotFilter = true

	filter, ok := s.applyFilterMsg(id, from, msg)
	if !ok {
		// Assume-all: ship everything this round (false positives only)
		// and cascade the conservative mode to the subtree.
		if p.nodes[id].flags != 0 {
			st.ownMatch = true
		}
		st.matchedProxy = st.proxied
		if st.activeChildren > 0 {
			s.sendFilter(x, id, st, assumeAllMsg())
		}
		return
	}

	st.memFilterBytes = msg.setBytes
	if nd := &p.nodes[id]; nd.flags != 0 {
		if quadtree.ContainsKey(filter, nd.key) {
			st.ownMatch = true
		} else {
			x.span(trace.KindSuppress, id, id, PhaseFilterDissem, 0)
		}
	}
	for _, t := range st.proxied {
		if quadtree.ContainsKey(filter, p.keyOf(t)) {
			st.matchedProxy = append(st.matchedProxy, t)
		} else {
			x.span(trace.KindSuppress, id, t.node, PhaseFilterDissem, 0)
		}
	}
	if st.activeChildren == 0 {
		return
	}
	sub := filter
	if !o.DisableSelectiveForwarding {
		if st.overflow {
			sub = filter // cannot prune: structure was too large to keep
		} else {
			sub = quadtree.IntersectKeys(filter, st.subtreeKeys)
			if pruned := len(filter) - len(sub); pruned > 0 {
				x.span(trace.KindPrune, id, -1, PhaseFilterDissem, pruned)
			}
		}
	}
	if len(sub) == 0 {
		return
	}
	// sub ⊆ filter, so equal lengths mean nothing was pruned and the
	// received size still holds.
	subBytes := msg.setBytes
	if len(sub) != len(filter) {
		subBytes = o.Rep.SetBytes(p, sub)
	}
	s.sendFilter(x, id, st, s.buildFilterMsg(p, o, id, sub, subBytes, st.childNeedsFull))
}

// forwardCompleteTuples is the Final-Result-Computation step at one
// node's phase-C deadline.
func (s *SENSJoin) forwardCompleteTuples(x *Exec, p *plan, id topology.NodeID, st *sensNode) {
	if st.cut {
		return
	}
	tuples := st.finalsIn
	tuples = append(tuples, st.matchedProxy...)
	if st.ownMatch {
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
		Kind: kindFinal, Src: id, Dst: x.Tree.Parent[id],
		Phase: PhaseFinalCollect, Size: size, Payload: tuples,
	})
}

// finalComplete checks (with simulator omniscience) that every member
// node whose key is in the filter delivered its tuple to the base
// station; a false result means failures lost data and the query should
// be re-executed (§IV-F).
func finalComplete(p *plan, filter []zorder.Key, got []finalTuple) bool {
	have := make(map[topology.NodeID]bool, len(got))
	for _, t := range got {
		have[t.node] = true
	}
	for id, nd := range p.nodes {
		if nd.flags == 0 {
			continue
		}
		if quadtree.ContainsKey(filter, nd.key) && !have[topology.NodeID(id)] {
			return false
		}
	}
	return true
}

// sensSlots sizes the TAG-style transmission slots. The phase-A slot
// covers the pre-computation's worst case (raw join-attribute tuples,
// with headroom for compressed representations that can expand); the
// phase-C slot covers complete tuples, like the external join's wave.
// This is why SENS-Join's response time stays within roughly twice the
// external join's (paper §VII).
func sensSlots(x *Exec, p *plan) (slotA, slotC float64) {
	boundA := p.members*p.rawTupleBytes + p.members*p.rawTupleBytes/2 + 256
	return x.Net.SlotFor(boundA), collectionSlot(x, p)
}
