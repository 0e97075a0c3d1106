package core

import (
	"fmt"

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
	// Phase A inbox, read at the deadline: the Treecut senders in arrival
	// order, the bytes and tuples they announced, the reporting children.
	// A Treecut node adds its own tuple to cutTuples before it sends.
	cutFrom   []topology.NodeID
	cutBytes  int
	cutTuples int
	children  []childReport
	// Outcome of phase A.
	subtreeKeys []zorder.Key
	proxied     []finalTuple
	// Phase B outcome.
	matchedProxy []finalTuple
	// Phase C inbox: who sent, in arrival order, and the bytes they
	// announced. The tuples stay with the nodes that matched them until
	// the base station lists them (gatherFinals).
	finalFrom  []topology.NodeID
	finalBytes int
	// Memory accounting, folded into MemoryReport after the run. Keeping
	// it per node means handlers never touch method-level state, which is
	// what lets sharded regions run them in parallel.
	memProxyBytes   int
	memSubtreeBytes int
	memFilterBytes  int

	cut            bool // phase A: the node left the query after Treecut
	overflow       bool // phase A: subtree structure too large to keep
	gotFilter      bool // phase B
	ownMatch       bool // phase B
	childNeedsFull bool // phase B (incremental mode)
}

// childReport is a reporting child in a node's phase-A inbox.
type childReport struct {
	id topology.NodeID
	pl *jaPayload
}

// childUnion returns the union of the reporting children's key sets and
// its size if known: an only child's set is adopted with the size its
// sender computed (nothing writes into a key set in place), several are
// merged once into an exactly sized set of unknown size.
func (st *sensNode) childUnion() ([]zorder.Key, int) {
	switch len(st.children) {
	case 0:
		return nil, 0
	case 1:
		return st.children[0].pl.keys, st.children[0].pl.keysBytes
	}
	var buf [8][]zorder.Key
	more := buf[:0]
	for _, c := range st.children[1:] {
		more = append(more, c.pl.keys)
	}
	return quadtree.UnionAll(st.children[0].pl.keys, more...), 0
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

// Run implements Method: a single query is a cluster of one.
func (s *SENSJoin) Run(x *Exec) (*Result, error) {
	if err := validateAliasCount(x); err != nil {
		return nil, err
	}
	res, err := s.round([]*Exec{x}, nil)
	if err != nil {
		return nil, err
	}
	return res[0], nil
}

// roundState is one execution of the three SENS-Join phases (Figs. 1-3)
// for a cluster of m compatible queries: they induce the same per-node
// plan (QueryGroup.Add), so one Join-Attribute-Collection wave, one
// filter dissemination and one final collection serve all of them, and
// only the base station tells them apart. m is the only input that
// changes behaviour. With m > 1 the disseminated filter is the union of
// the members' filters with an m-bit membership mask per key, and a
// complete tuple travels once with the mask of the members that want it;
// with m = 1 the union is the filter, there are no masks, no mask bytes
// and no mask state — the round is the paper's protocol for one query.
type roundState struct {
	s *SENSJoin
	o Options
	m int
	// x and p are the first member's execution and plan: the network,
	// tree, clock and journal of the round, and the node data every
	// member shares. plans[j] is p bound to execs[j]'s query.
	x     *Exec
	p     *plan
	execs []*Exec
	plans []*plan

	states []sensNode
	masks  []nodeMasks // per-node mask state; nil iff m == 1

	// What the base station learns: the Treecut tuples of its first
	// cutSenders senders, gathered at tA, and per member.
	cut        []finalTuple
	cutSenders int
	completeA  bool
	filters    [][]zorder.Key
	got        [][]finalTuple // the tuples each member's table was joined from
	results    []*Result
}

// nodeMasks is a node's mask bookkeeping in a round of m > 1 queries,
// kept beside sensNode so that a single query's state stays as small as
// it is: which members want the node's own tuple and each matched proxied
// tuple, and how many tuples — each with its bitmap on the wire — the
// node's phase-C message stands for.
type nodeMasks struct {
	own    uint64   // zero: suppressed; all ones under assume-all
	proxy  []uint64 // aligned with sensNode.matchedProxy
	tuples int      // in the phase-C inbox; from the deadline on, in the node's message
}

// round runs the protocol once for the cluster execs and returns one
// result per member. joined, when set, is called at the base station for
// every member as its table comes out of the final join.
func (s *SENSJoin) round(execs []*Exec, joined func(j int, at float64, rows int)) ([]*Result, error) {
	x := execs[0]
	p, err := buildPlan(x)
	if err != nil {
		return nil, err
	}
	if p.grid == nil {
		return nil, fmt.Errorf("core: query %q has no join attributes; SENS-Join needs join conditions", x.Query.String())
	}
	m := len(execs)
	r := &roundState{
		s: s, o: s.Options.withDefaults(), m: m, x: x, p: p, execs: execs,
		plans: make([]*plan, m), filters: make([][]zorder.Key, m),
		got: make([][]finalTuple, m), results: make([]*Result, m),
	}
	r.plans[0] = p
	for j := 1; j < m; j++ {
		r.plans[j] = p.forExec(execs[j])
	}
	tree := x.Tree
	n := x.Net.N()
	start := x.Sim.Now()
	slotA, slotC := sensSlots(x, p, m)
	if s.cont != nil {
		s.cont = s.cont.ensure(n)
	}
	s.Memory = MemoryReport{}

	// Per-node state is on loan from the runner (runstate.go).
	r.states = borrow(&x.run().sens, n)
	defer giveBack(x, &x.run().sens, r.states)
	if m > 1 {
		r.masks = borrow(&x.run().masks, n)
		defer giveBack(x, &x.run().masks, r.masks)
	}

	var standDown []topology.NodeID
	defer recordStandDowns(x, &standDown)()

	// Message handling is shared by all phases.
	x.Net.SetHandler(func(id topology.NodeID, msg netsim.Message) {
		st := &r.states[id]
		if st.cut {
			return // the node exited the query after Treecut
		}
		switch msg.Kind {
		case kindFullTuples:
			// As in phase C, the tuples stay put until read (gatherCut).
			if msg.Payload == any(r) {
				st.cutFrom = append(st.cutFrom, msg.Src)
				st.cutBytes += msg.Size
				st.cutTuples += r.states[msg.Src].cutTuples
			}
		case kindJoinAttrs:
			pl := msg.Payload.(*jaPayload)
			st.children = append(st.children, childReport{msg.Src, pl})
			st.childNeedsFull = st.childNeedsFull || pl.needFull
		case kindFilter:
			// Filters travel down the tree: only the broadcast of
			// this node's parent applies; broadcasts overheard from
			// other neighbors concern their subtrees.
			if msg.Src == x.Tree.Parent[id] {
				r.onFilter(id, st, msg.Src, msg.Payload.(*filterMsg))
			}
		case kindFinal:
			// Nothing is copied from hop to hop: a relay notes who it heard
			// from and the bytes they announced (and, with bitmaps on the
			// wire, the tuple count the sender settled at its deadline).
			if msg.Payload != any(r) {
				return // not this round's
			}
			st.finalFrom = append(st.finalFrom, msg.Src)
			st.finalBytes += msg.Size
			if r.masks != nil {
				r.masks[id].tuples += r.masks[msg.Src].tuples
			}
		}
	})
	defer x.Net.SetHandler(nil)

	// Phase A: Join-Attribute-Collection, leaves first (Fig. 2).
	x.span(trace.KindPhaseStart, topology.BaseStation, -1, PhaseJACollect, 0)
	// A node's deadline depends on its depth alone: one queue entry per
	// tree level, not one per node.
	forwardA := func(id topology.NodeID) { r.forwardJoinAttrValues(id, &r.states[id]) }
	for d := 1; d <= tree.MaxDepth; d++ {
		x.Sim.ScheduleNodes(topology.BaseStation, tree.Level(d), start+float64(tree.MaxDepth-d)*slotA, forwardA)
	}

	// The base station closes phase A, computes the filter and starts
	// phase B (Fig. 3); phase C deadlines are derived afterwards.
	tA := start + float64(tree.MaxDepth+1)*slotA
	x.Sim.ScheduleNode(topology.BaseStation, topology.BaseStation, tA, func() {
		x.span(trace.KindPhaseEnd, topology.BaseStation, -1, PhaseJACollect, 0)
		x.span(trace.KindPhaseStart, topology.BaseStation, -1, PhaseFilterDissem, 0)
		filterBytes := r.disseminate()

		// Phase C schedule: after the filter has fully propagated. tB is
		// computed from tA, the statically known time of this event, not
		// from a clock: inside a node event only the region's clock
		// advances, and it reads exactly tA here.
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
		forwardC := func(id topology.NodeID) { r.forwardCompleteTuples(id, &r.states[id]) }
		for d := 1; d <= tree.MaxDepth; d++ {
			x.Sim.ScheduleNodes(topology.BaseStation, tree.Level(d), tB+float64(tree.MaxDepth-d)*slotC, forwardC)
		}
		tEnd := tB + float64(tree.MaxDepth+1)*slotC
		x.Sim.ScheduleNode(topology.BaseStation, topology.BaseStation, tEnd, func() {
			x.span(trace.KindPhaseEnd, topology.BaseStation, -1, PhaseFinalCollect, 0)
			r.joinMembers(tEnd, tEnd-start, joined)
		})
	})
	x.Sim.Run()

	// Fold the nodes' memory accounting into the report; the base
	// station's is zero, for it stores nothing.
	for i := range r.states {
		s.Memory.fold(&r.states[i])
	}
	r.settle(standDown, start)
	return r.results, nil
}

// filterHook, when non-nil, computes the filters in place of
// computeFilter. Tests use it to run the protocol on a reference filter;
// it must stay nil outside tests.
var filterHook func(*plan, []zorder.Key) []zorder.Key

// disseminate is the base station's step between phases A and B: one
// filter per member over the collected keys, their union (at m = 1 the
// filter itself) with the per-key membership masks, sent to the children.
// It returns the filter's wire size, which sizes the phase-B slot.
func (r *roundState) disseminate() int {
	bs := &r.states[topology.BaseStation]
	r.cutSenders = len(bs.cutFrom)
	r.cut = r.gatherCut(make([]finalTuple, 0, bs.cutTuples), bs.cutFrom)
	sub, _ := bs.childUnion()
	keys := quadtree.UnionAll(sub, r.p.heldKeys(nil, r.cut, topology.BaseStation))
	covered := len(r.cut)
	for _, c := range bs.children {
		covered += c.pl.covered
	}
	r.completeA = covered == r.p.members
	filter := computeFilter
	if filterHook != nil {
		filter = filterHook
	}
	for j, pj := range r.plans {
		r.filters[j] = filter(pj, keys)
	}
	union := r.filters[0]
	var masks []uint64
	if r.m > 1 {
		union = quadtree.UnionAll(union, r.filters[1:]...)
		masks = maskAlign(union, r.filters)
	}
	unionBytes := r.o.Rep.SetBytes(r.p, union)
	filterBytes := unionBytes + maskBytes(len(union), r.m)
	r.x.Metrics.observeFilter(len(union), filterBytes)
	if len(union) > 0 && len(bs.children) > 0 {
		msg := r.s.buildFilterMsg(r.p, r.o, topology.BaseStation, union, unionBytes, bs.childNeedsFull)
		r.sendFilter(topology.BaseStation, bs, msg, masks)
	}
	return filterBytes
}

// gatherCut appends the tuples of the senders' Treecut messages in the
// order a receiver that copied each message on arrival would hold them:
// senders in arrival order, each message its sender's gathered tuples
// with its own tuple last. A Treecut node hears nothing after its
// deadline, so its list reads the same whenever it is gathered.
func (r *roundState) gatherCut(tuples []finalTuple, senders []topology.NodeID) []finalTuple {
	for _, c := range senders {
		tuples = r.gatherCut(tuples, r.states[c].cutFrom)
		if r.p.nodes[c].flags != 0 {
			tuples = append(tuples, r.p.tuple(c))
		}
	}
	return tuples
}

// gatherFinals appends the tuples of node id's phase-C message — and, in a
// round of m > 1 queries, their bitmaps — in the order a relay that copied
// its inbox would have sent them: each sender's message in arrival order,
// then the matched proxied tuples, the own tuple last.
func (r *roundState) gatherFinals(tuples []finalTuple, masks []uint64, id topology.NodeID) ([]finalTuple, []uint64) {
	st := &r.states[id]
	for _, c := range st.finalFrom {
		tuples, masks = r.gatherFinals(tuples, masks, c)
	}
	tuples = append(tuples, st.matchedProxy...)
	if st.ownMatch {
		tuples = append(tuples, r.p.tuple(id))
	}
	if r.masks != nil {
		masks = append(masks, r.masks[id].proxy...)
		if st.ownMatch {
			masks = append(masks, r.masks[id].own)
		}
	}
	return tuples, masks
}

// joinMembers ends phase C at the base station: the exact final join of
// every member over its share of the collected tuples.
func (r *roundState) joinMembers(at, response float64, joined func(j int, at float64, rows int)) {
	// What member j's table is joined from: the Treecut tuples, which
	// bypass the filter for every member, and the collected tuples whose
	// bitmap names j (all of them at m = 1). The base station sends
	// nothing itself: its message is what it was sent.
	// A Treecut sender heard after tA still counts here.
	bs := &r.states[topology.BaseStation]
	cut := r.gatherCut(r.cut, bs.cutFrom[r.cutSenders:])
	var finals []finalTuple
	var masks []uint64
	if r.masks == nil {
		finals = cut // the one member's list, built in place
	} else {
		k := r.masks[topology.BaseStation].tuples
		finals, masks = make([]finalTuple, 0, k), make([]uint64, 0, k)
	}
	finals, masks = r.gatherFinals(finals, masks, topology.BaseStation)
	if r.masks != nil {
		dedup := 0
		for _, mask := range masks {
			if mask&(mask-1) != 0 {
				dedup++ // shipped once, wanted by >= 2 queries
			}
		}
		r.x.Metrics.observeMQODedup(dedup)
	}
	for j, xj := range r.execs {
		tuples := finals
		if r.masks != nil {
			tuples = append([]finalTuple(nil), cut...)
			bit := uint64(1) << uint(j)
			for i, mask := range masks {
				if mask&bit != 0 {
					tuples = append(tuples, finals[i])
				}
			}
		}
		r.got[j] = tuples
		rows, contrib := exactJoin(xj, tuples)
		if joined != nil {
			joined(j, at, len(rows))
		}
		r.results[j] = &Result{
			Columns:           columnsOf(xj.Query),
			Rows:              rows,
			ContributingNodes: len(contrib),
			MemberNodes:       r.p.members,
			Complete:          r.completeA && finalComplete(r.plans[j], r.filters[j], tuples),
			ResponseTime:      response,
		}
	}
	if r.s.cont != nil {
		r.s.cont.Rounds++
	}
}

// settle runs after the simulation drained. Under reliable transport the
// base station knows which subtrees are missing and re-requests only
// those instead of re-executing the query: one scoped recovery over the
// union of the members' needs, then a per-member exact finish from the
// shared (recovered) have-set — extra tuples add no rows, and the
// node-id sort makes a member's table byte-identical to its independent
// reliable run. Without it an incomplete result is only annotated.
func (r *roundState) settle(standDown []topology.NodeID, start float64) {
	if !r.x.Net.Reliable() {
		for j, res := range r.results {
			if res != nil && !res.Complete {
				need := contributorSet(r.execs[j], r.plans[j])
				annotateIncomplete(r.execs[j], missingFrom(need, tupleIndex(r.got[j])), res)
			}
		}
		return
	}
	needs := make([]map[topology.NodeID]bool, r.m)
	for j, xj := range r.execs {
		needs[j] = contributorSet(xj, r.plans[j])
	}
	need, have := needs[0], tupleIndex(r.got[0])
	if r.m > 1 {
		need = make(map[topology.NodeID]bool)
		for j := range needs {
			for id := range needs[j] {
				need[id] = true
			}
			for _, t := range r.got[j] {
				if _, ok := have[t.node]; !ok {
					have[t.node] = t
				}
			}
		}
	}
	rounds, _ := runScopedRecovery(r.x, r.p, need, have, standDown)
	for j, xj := range r.execs {
		finishReliable(xj, r.plans[j], r.results[j], have, missingFrom(needs[j], have), rounds, start)
	}
}

// recordStandDowns appends to *standDown the addressee of every filter
// transfer that exhausts its retransmissions: the subtree below it may run
// phase C without a filter, so recovery re-collects it unconditionally.
// Only reliable transport gives up, and it reports give-ups
// single-threaded, between node events; the returned func ends the
// recording.
func recordStandDowns(x *Exec, standDown *[]topology.NodeID) (stop func()) {
	if !x.Net.Reliable() {
		return func() {}
	}
	x.Net.OnGiveUp(func(m netsim.Message, attempts int, at float64) {
		if m.Kind == kindFilter {
			*standDown = append(*standDown, m.Dst)
			x.spanAt(at, trace.KindStandDown, m.Dst, m.Src, PhaseFilterDissem, attempts)
		}
	})
	return func() { x.Net.OnGiveUp(nil) }
}

// sendFilter disseminates a filter message to the node's active
// children: one local broadcast normally (the paper's model), one
// reliable unicast per child when hop-by-hop reliable transport is on —
// ACKs need a single addressee, and an unconfirmed child is exactly the
// stand-down signal scoped recovery keys on. masks are the per-key
// membership masks of the key set msg stands for (nil: every member);
// their bytes ride on top of the possibly delta-compressed set.
func (r *roundState) sendFilter(id topology.NodeID, st *sensNode, msg *filterMsg, masks []uint64) {
	x := r.x
	if r.m > 1 {
		bitmap := maskBytes(len(masks), r.m)
		msg.masks = masks
		msg.size += bitmap
		x.Metrics.observeMQOBroadcast(bitmap)
	}
	if !x.Net.Reliable() {
		x.Net.Send(netsim.Message{
			Kind: kindFilter, Src: id, Dst: netsim.BroadcastID,
			Phase: PhaseFilterDissem, Size: msg.size, Payload: msg,
		})
		return
	}
	for _, c := range st.children {
		x.Net.Send(netsim.Message{
			Kind: kindFilter, Src: id, Dst: c.id,
			Phase: PhaseFilterDissem, Size: msg.size, Payload: msg,
		})
	}
}

// forwardJoinAttrValues is Fig. 2 at one node's phase-A deadline.
func (r *roundState) forwardJoinAttrValues(id topology.NodeID, st *sensNode) {
	s, x, p, o := r.s, r.x, r.p, r.o
	nd := &p.nodes[id]
	ownBytes := nd.tupleBytes // 0 for a non-member

	// Treecut (Fig. 2, lines 12-18): while the subtree's data is small
	// and entirely made of complete tuples, keep sending complete tuples.
	if !o.DisableTreecut && len(st.children) == 0 && st.cutBytes+ownBytes <= o.Dmax {
		st.cut = true
		if nd.flags != 0 {
			st.cutTuples++
		}
		x.span(trace.KindTreecut, id, x.Tree.Parent[id], PhaseJACollect, st.cutTuples)
		if st.cutTuples == 0 {
			return
		}
		x.Net.Send(netsim.Message{
			Kind: kindFullTuples, Src: id, Dst: x.Tree.Parent[id],
			Phase: PhaseJACollect, Size: st.cutBytes + ownBytes, Payload: r,
		})
		return
	}

	// Act as proxy (lines 20-27): store complete tuples and the
	// subtree's join-attribute structure, forward join-attribute tuples.
	if st.cutTuples > 0 {
		st.proxied = r.gatherCut(make([]finalTuple, 0, st.cutTuples), st.cutFrom)
		x.span(trace.KindProxy, id, -1, PhaseJACollect, len(st.proxied))
	}
	st.memProxyBytes = st.cutBytes
	union, inBytes := st.childUnion()
	if inBytes == 0 {
		inBytes = o.Rep.SetBytes(p, union)
	}
	if inBytes <= o.FilterMemLimit {
		st.subtreeKeys = union
		st.memSubtreeBytes = inBytes
	} else {
		st.overflow = true
	}
	// The held keys join the union in one merge (scratch on the stack).
	var buf [4]zorder.Key
	keys := quadtree.UnionAll(union, p.heldKeys(buf[:0], st.proxied, id))
	if len(keys) == 0 {
		return // nothing anywhere in the subtree
	}
	raw := len(st.proxied)
	if nd.flags != 0 {
		raw++
	}
	pl := &jaPayload{keys: keys, rawCount: raw, covered: raw}
	for _, c := range st.children {
		pl.rawCount += c.pl.rawCount
		pl.covered += c.pl.covered
	}
	if len(keys) == len(union) {
		pl.keysBytes = inBytes
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
func (r *roundState) onFilter(id topology.NodeID, st *sensNode, from topology.NodeID, msg *filterMsg) {
	if st.gotFilter {
		return // duplicate delivery
	}
	st.gotFilter = true
	x, p := r.x, r.p
	var mk *nodeMasks // nil iff m == 1
	if r.masks != nil {
		mk = &r.masks[id]
	}

	filter, ok := r.s.applyFilterMsg(id, from, msg)
	if ok && mk != nil && len(msg.masks) != len(filter) {
		// The masks always describe the sender's full key set; a length
		// mismatch means the reconstruction diverged — be conservative.
		ok = false
	}
	if !ok {
		// Assume-all: ship everything this round to every member (false
		// positives only) and cascade the conservative mode to the subtree.
		st.ownMatch = p.nodes[id].flags != 0
		st.matchedProxy = st.proxied
		if mk != nil {
			mk.own = maskAll(r.m)
			for range st.proxied {
				mk.proxy = append(mk.proxy, mk.own)
			}
		}
		if len(st.children) > 0 {
			r.sendFilter(id, st, assumeAllMsg(), nil)
		}
		return
	}

	st.memFilterBytes = msg.setBytes + maskBytes(len(filter), r.m)
	if nd := &p.nodes[id]; nd.flags != 0 {
		if i := findKey(filter, nd.key); i >= 0 {
			st.ownMatch = true
			if mk != nil {
				mk.own = msg.masks[i] // present keys always carry a non-zero mask
			}
		} else {
			x.span(trace.KindSuppress, id, id, PhaseFilterDissem, 0)
		}
	}
	for _, t := range st.proxied {
		if i := findKey(filter, p.keyOf(t)); i >= 0 {
			st.matchedProxy = append(st.matchedProxy, t)
			if mk != nil {
				mk.proxy = append(mk.proxy, msg.masks[i])
			}
		} else {
			x.span(trace.KindSuppress, id, t.node, PhaseFilterDissem, 0)
		}
	}
	if len(st.children) == 0 {
		return
	}
	// An overflowed node cannot prune: its structure was too large to keep.
	sub, subMasks := filter, msg.masks
	if !r.o.DisableSelectiveForwarding && !st.overflow {
		sub = quadtree.IntersectKeys(filter, st.subtreeKeys)
		if pruned := len(filter) - len(sub); pruned > 0 {
			x.span(trace.KindPrune, id, -1, PhaseFilterDissem, pruned)
		}
		if mk != nil {
			subMasks = realignMasks(filter, msg.masks, sub)
		}
	}
	if len(sub) == 0 {
		return
	}
	// sub ⊆ filter, so equal lengths mean nothing was pruned and the
	// received size still holds.
	subBytes := msg.setBytes
	if len(sub) != len(filter) {
		subBytes = r.o.Rep.SetBytes(p, sub)
	}
	r.sendFilter(id, st, r.s.buildFilterMsg(p, r.o, id, sub, subBytes, st.childNeedsFull), subMasks)
}

// forwardCompleteTuples is the Final-Result-Computation step at one
// node's phase-C deadline: a tuple wanted by k >= 1 member queries ships
// once, in a round of m > 1 with its membership bitmap.
func (r *roundState) forwardCompleteTuples(id topology.NodeID, st *sensNode) {
	if st.cut {
		return
	}
	// The node's own share of the message; the inbox's bytes already
	// include the bitmaps their senders added.
	tuples, size := len(st.matchedProxy), st.finalBytes
	for _, t := range st.matchedProxy {
		size += t.bytes
	}
	if st.ownMatch {
		tuples++
		size += r.p.nodes[id].tupleBytes
	}
	if tuples == 0 && len(st.finalFrom) == 0 {
		return
	}
	if r.masks != nil {
		mk := &r.masks[id]
		mk.tuples += tuples
		size += tuples * perTupleMaskBytes(r.m)
		r.x.Metrics.observeMQOBitmap(mk.tuples * perTupleMaskBytes(r.m))
	}
	r.x.Net.Send(netsim.Message{
		Kind: kindFinal, Src: id, Dst: r.x.Tree.Parent[id],
		Phase: PhaseFinalCollect, Size: size, Payload: r,
	})
}

// finalComplete checks (with simulator omniscience) that every member
// node whose key is in the filter delivered its tuple to the base
// station; a false result means failures lost data and the query should
// be re-executed (§IV-F).
func finalComplete(p *plan, filter []zorder.Key, got []finalTuple) bool {
	have := make([]uint64, (len(p.nodes)+63)/64)
	for _, t := range got {
		have[t.node/64] |= 1 << (t.node % 64)
	}
	for id, nd := range p.nodes {
		if nd.flags != 0 && have[id/64]&(1<<(id%64)) == 0 && quadtree.ContainsKey(filter, nd.key) {
			return false
		}
	}
	return true
}

// sensSlots sizes the TAG-style transmission slots. The phase-A slot
// covers the pre-computation's worst case (raw join-attribute tuples,
// with headroom for compressed representations that can expand); the
// phase-C slot covers complete tuples, like the external join's wave,
// plus the membership bitmap each carries in a round of m > 1 queries.
// This is why SENS-Join's response time stays within roughly twice the
// external join's (paper §VII).
func sensSlots(x *Exec, p *plan, m int) (slotA, slotC float64) {
	boundA := p.members*p.rawTupleBytes + p.members*p.rawTupleBytes/2 + 256
	return x.Net.SlotFor(boundA), x.Net.SlotFor(collectionBound(p) + p.members*perTupleMaskBytes(m))
}
