package core

import (
	"fmt"
	"sort"
	"strings"

	"sensjoin/internal/netsim"
	"sensjoin/internal/quadtree"
	"sensjoin/internal/query"
	"sensjoin/internal/topology"
	"sensjoin/internal/trace"
	"sensjoin/internal/zorder"
)

// Multi-query optimization: shared execution of concurrent continuous
// joins. With N continuous queries over one deployment, independent
// execution repeats the three SENS-Join phases N times per epoch even
// when the queries overlap heavily. A QueryGroup instead clusters
// *compatible* queries — same FROM shape, join attributes, shipped
// attributes and (canonically equal) local predicates, so every member
// induces the identical per-node plan — and runs each cluster as ONE
// protocol round per epoch:
//
//   - one Join-Attribute-Collection wave (phase A) feeds all members;
//   - one filter broadcast carries the UNION of the per-query filters
//     plus an m-bit membership mask per key (m = cluster size), so a
//     node knows exactly which queries want its tuple;
//   - one collection wave (phase C) ships a tuple matching k queries
//     once, tagged with a compact query-membership bitmap, and the base
//     station fans it back out to per-query result tables through the
//     exact-join kernel.
//
// The incremental symmetric-difference machinery of incremental.go is
// reused unchanged for the union filter: across epochs only the union's
// drift re-disseminates, shared by the whole cluster (the masks are
// small — m bits per key — and ship fully each epoch).
//
// Correctness: cluster members share the node set, flags, quantized
// keys and tuple sizes by construction of the compatibility key, so one
// phase-A wave is exact for all of them. The union filter is a superset
// of every member's filter, and a per-key mask bit j is set iff the key
// is in member j's filter; a tuple reaches member j's table iff its
// mask has bit j, which makes each table exactly what member j's own
// filter would have collected (supersets add no rows to an exact join).
// Assume-all fallbacks set the full mask — a further superset per
// query. Under reliable transport the per-query tables are
// byte-identical to independent runs (the recovered tuple set is sorted
// by node id before the final join); under best-effort delivery the row
// SETS are identical but arrival order may differ.

// maxClusterQueries bounds one cluster so the membership mask fits a
// uint64. Further compatible queries open a new cluster.
const maxClusterQueries = 64

// QueryGroup is a set of concurrent continuous queries executed with
// shared dissemination and collection.
type QueryGroup struct {
	// Options tune the underlying SENS-Join; the zero value selects the
	// paper's defaults.
	Options Options

	queries  []*groupQuery
	clusters []*qgCluster
	rounds   int
}

// groupQuery is one registered query.
type groupQuery struct {
	p       *Prepared
	cluster *qgCluster
	bit     int // index within the cluster (mask bit)
	idx     int // index within the group (result slot)
	// tag is the member's own trace ID: shared-round journal events
	// carry the group's ambient tag, except each member's fan-out span,
	// which carries this one (SetMemberTag).
	tag string
}

// qgCluster is a set of compatible queries sharing one protocol round
// per epoch. Its SENSJoin owns the cluster's incremental filter state.
type qgCluster struct {
	key     string
	members []*groupQuery
	sens    *SENSJoin
}

// NewQueryGroup returns an empty group with the given method options.
func NewQueryGroup(o Options) *QueryGroup {
	return &QueryGroup{Options: o}
}

// Add registers a continuous query with the group and returns its index
// (the result slot in RunRound's output). Compatible queries — same
// relations, join attributes, shipped attributes and canonically equal
// local predicates — land in the same cluster.
func (g *QueryGroup) Add(p *Prepared) (int, error) {
	if p.Relations() < 2 {
		return 0, fmt.Errorf("core: %q has %d relation(s); shared execution needs joins", p.src, p.Relations())
	}
	if !p.Shareable() {
		return 0, fmt.Errorf("core: query %q has no join attributes; SENS-Join needs join conditions", p.src)
	}
	gq := &groupQuery{p: p, idx: len(g.queries)}
	key := compatKey(p.query, p.analysis)
	for _, c := range g.clusters {
		if c.key == key && len(c.members) < maxClusterQueries {
			gq.cluster = c
			gq.bit = len(c.members)
			c.members = append(c.members, gq)
			break
		}
	}
	if gq.cluster == nil {
		c := &qgCluster{key: key, members: []*groupQuery{gq}, sens: NewContinuousSENSJoin()}
		c.sens.Options = g.Options
		gq.cluster = c
		g.clusters = append(g.clusters, c)
	}
	g.queries = append(g.queries, gq)
	return gq.idx, nil
}

// compatKey renders everything that shapes the per-node plan: two
// queries with equal keys induce identical node flags, quantized keys
// and tuple sizes, which is what lets one collection wave serve both.
// Join conditions are deliberately absent — they only shape the
// per-query filter the base station computes, and the shared broadcast
// carries the union.
func compatKey(q *query.Query, a *query.Analysis) string {
	var b strings.Builder
	fmt.Fprintf(&b, "from=%d;", len(q.From))
	for i, ref := range q.From {
		fmt.Fprintf(&b, "[%d]rel=%s ja=%v sh=%v lp=", i, ref.Relation, a.JoinAttrs[i], a.ShippedAttrs[i])
		preds := make([]string, 0, len(a.LocalPreds[i]))
		for _, pr := range a.LocalPreds[i] {
			preds = append(preds, query.Canonical(pr).String())
		}
		sort.Strings(preds)
		b.WriteString(strings.Join(preds, "&"))
		b.WriteByte(';')
	}
	return b.String()
}

// Len returns the number of registered queries.
func (g *QueryGroup) Len() int { return len(g.queries) }

// Clusters returns the number of shared-execution clusters.
func (g *QueryGroup) Clusters() int { return len(g.clusters) }

// ClusterOf returns the cluster ordinal of query idx (clusters are
// numbered in first-registration order).
func (g *QueryGroup) ClusterOf(idx int) int {
	for ci, c := range g.clusters {
		if c == g.queries[idx].cluster {
			return ci
		}
	}
	return -1
}

// Rounds reports completed shared rounds.
func (g *QueryGroup) Rounds() int { return g.rounds }

// SetMemberTag attributes query idx's per-member journal events (its
// result fan-out at the base station) to the given trace ID. The shared
// round's common events carry whatever ambient tag the recorder holds.
func (g *QueryGroup) SetMemberTag(idx int, tag string) {
	g.queries[idx].tag = tag
}

// groupFilterMsg is the merged filter broadcast: the (possibly delta)
// union filter plus one m-bit membership mask per key. The masks align
// with the RECONSTRUCTED key list at the receiver — the sender's full
// current key set — and ship fully every epoch (m bits per key; only
// the key set itself is delta-compressed). masks is nil for assume-all.
type groupFilterMsg struct {
	fm    *filterMsg
	masks []uint64
}

// groupTuple is a complete tuple in flight with its query-membership
// bitmap; the bitmap adds perTupleMaskBytes(m) wire bytes.
type groupTuple struct {
	t    finalTuple
	mask uint64
}

// groupNode extends the per-node SENS-Join state with mask bookkeeping.
type groupNode struct {
	sensNode
	// ownMask marks the queries whose filter contains the node's key
	// (full mask under assume-all); zero suppresses the tuple.
	ownMask uint64
	// proxyG holds the proxied tuples that matched, with their masks.
	proxyG []groupTuple
	// gfinals is the phase-C inbox.
	gfinals []groupTuple
}

// maskAll returns the m-bit all-ones mask (m <= 64; at m == 64 the
// shift wraps to 0 and the subtraction yields all ones, as intended).
func maskAll(m int) uint64 { return uint64(1)<<uint(m) - 1 }

// maskBytes is the wire size of n per-key masks of m bits each.
func maskBytes(n, m int) int { return (n*m + 7) / 8 }

// perTupleMaskBytes is the wire size of one tuple's membership bitmap.
func perTupleMaskBytes(m int) int { return (m + 7) / 8 }

// findKey locates k in the sorted key set, or -1.
func findKey(keys []zorder.Key, k zorder.Key) int {
	i := sort.Search(len(keys), func(j int) bool { return keys[j] >= k })
	if i < len(keys) && keys[i] == k {
		return i
	}
	return -1
}

// realignMasks projects the masks of filter onto its subset sub (both
// sorted): the pruned broadcast keeps each surviving key's mask.
func realignMasks(filter []zorder.Key, masks []uint64, sub []zorder.Key) []uint64 {
	out := make([]uint64, len(sub))
	fi := 0
	for i, k := range sub {
		for fi < len(filter) && filter[fi] < k {
			fi++
		}
		if fi < len(filter) && filter[fi] == k {
			out[i] = masks[fi]
		}
	}
	return out
}

// RunRound executes one shared epoch of every registered query at
// snapshot time t and returns the per-query results, indexed by the
// query indices Add returned. Incompatible clusters run sequentially;
// within a cluster all members share one protocol round, which counts
// once in sensjoin_core_runs_total. Under Audited (or the runner's
// AutoAudit) every cluster's journal segment is audited, and each
// member's Result.Violations holds what its cluster's round produced.
// Filter soundness is necessarily per cluster: the union filter only
// suppresses a key no MEMBER of that cluster wants — a node another
// cluster's query needs may be legitimately suppressed here.
// WithRecovery does not apply to shared rounds.
func (g *QueryGroup) RunRound(r *Runner, t float64, opts ...RunOption) ([]*Result, error) {
	if len(g.queries) == 0 {
		return nil, fmt.Errorf("core: empty query group")
	}
	o := gatherOptions(opts)
	if r.Metrics != nil {
		r.Metrics.MQOGroups.Set(int64(len(g.clusters)))
	}
	results := make([]*Result, len(g.queries))
	for _, c := range g.clusters {
		if r.Metrics != nil {
			r.Metrics.Runs.Inc()
		}
		seg := r.openAudit(o, "shared round") // before Exec: it may switch tracing on
		execs := make([]*Exec, len(c.members))
		for j, gq := range c.members {
			execs[j] = r.Exec(gq.p, t)
		}
		if err := g.runCluster(c, execs, results); err != nil {
			return nil, err
		}
		if seg == nil {
			continue
		}
		found, err := seg.close([]string{PhaseJACollect, PhaseFinalCollect}, execs, nil)
		if err != nil {
			return nil, err
		}
		for _, gq := range c.members {
			if res := results[gq.idx]; res != nil {
				res.Violations = found
			}
		}
	}
	g.rounds++
	return results, nil
}

// runCluster is SENSJoin.Run generalized to m cluster members: one
// phase-A wave, one masked union-filter dissemination, one bitmap-
// tagged collection wave, then a per-member exact join at the base
// station.
func (g *QueryGroup) runCluster(c *qgCluster, execs []*Exec, results []*Result) error {
	m := len(c.members)
	fullMask := maskAll(m)
	s := c.sens
	o := s.Options.withDefaults()

	x0 := execs[0]
	p0, err := buildPlan(x0)
	if err != nil {
		return err
	}
	if p0.grid == nil {
		return fmt.Errorf("core: query %q has no join attributes; SENS-Join needs join conditions", x0.Query.String())
	}
	plans := make([]*plan, m)
	plans[0] = p0
	for j := 1; j < m; j++ {
		plans[j] = p0.forExec(execs[j])
	}

	tree := x0.Tree
	n := x0.Net.N()
	start := x0.Sim.Now()
	slotA, _ := sensSlots(x0, p0)
	// The collection slot must also cover the per-tuple membership
	// bitmaps riding on a worst-case packet.
	maxTuple := 0
	for _, nd := range p0.nodes {
		if nd.tupleBytes > maxTuple { // 0 for non-members
			maxTuple = nd.tupleBytes
		}
	}
	slotC := x0.Net.SlotFor(p0.members*maxTuple + p0.members*perTupleMaskBytes(m) + 64)
	s.cont = s.cont.ensure(n)
	s.cont.scratch.reset()
	s.Memory = MemoryReport{}

	states := borrow(&x0.run().group, n)
	defer giveBack(x0, &x0.run().group, states)
	for i := range states {
		states[i].allFull = true
	}

	var standDown []topology.NodeID
	defer recordStandDowns(x0, &standDown)()

	x0.Net.SetHandler(func(id topology.NodeID, msg netsim.Message) {
		st := &states[id]
		if st.cut {
			return
		}
		switch msg.Kind {
		case kindFullTuples:
			st.fullsIn = append(st.fullsIn, msg.Payload.([]finalTuple)...)
		case kindJoinAttrs:
			st.onJoinAttrs(msg)
		case kindFilter:
			if msg.Src == tree.Parent[id] {
				g.onGroupFilter(x0, p0, o, s, id, st, msg.Src, msg.Payload.(*groupFilterMsg), m, fullMask)
			}
		case kindFinal:
			st.gfinals = append(st.gfinals, msg.Payload.([]groupTuple)...)
		}
	})
	defer x0.Net.SetHandler(nil)

	// Phase A: one Join-Attribute-Collection wave serves every member.
	x0.span(trace.KindPhaseStart, topology.BaseStation, -1, PhaseJACollect, 0)
	for i := 1; i < n; i++ {
		id := topology.NodeID(i)
		if !tree.Reachable(id) {
			continue
		}
		deadline := start + float64(tree.MaxDepth-tree.Depth[id])*slotA
		x0.Sim.ScheduleNode(id, id, deadline, func() {
			s.forwardJoinAttrValues(x0, p0, o, id, &states[id].sensNode)
		})
	}

	var completeA bool
	filters := make([][]zorder.Key, m)
	tA := start + float64(tree.MaxDepth+1)*slotA
	var tEnd float64
	x0.Sim.ScheduleNode(topology.BaseStation, topology.BaseStation, tA, func() {
		x0.span(trace.KindPhaseEnd, topology.BaseStation, -1, PhaseJACollect, 0)
		x0.span(trace.KindPhaseStart, topology.BaseStation, -1, PhaseFilterDissem, 0)
		bs := &states[topology.BaseStation]
		bsKeys := keySet{keys: bs.keysIn}
		for _, tt := range bs.fullsIn {
			bsKeys.add(p0.keyOf(tt))
		}
		completeA = bs.coverIn+len(bs.fullsIn) == p0.members

		// One filter per member over the shared key collection, then the
		// union plus per-key membership masks.
		var union []zorder.Key
		for j := range execs {
			filters[j] = computeFilter(plans[j], bsKeys.keys, !o.DisableBandIndex)
			union = quadtree.UnionKeys(union, filters[j])
		}
		masks := maskAlign(union, filters)
		unionBytes := o.Rep.SetBytes(p0, union)
		filterBytes := unionBytes + maskBytes(len(union), m)
		x0.Metrics.observeFilter(len(union), filterBytes)

		if len(union) > 0 && bs.activeChildren > 0 {
			fm := s.buildFilterMsg(p0, o, topology.BaseStation, union, unionBytes, bs.childNeedsFull)
			g.sendGroupFilter(x0, topology.BaseStation, &bs.sensNode, &groupFilterMsg{fm: fm, masks: masks}, m)
		}

		slotB := x0.Net.SlotFor(filterBytes + 32)
		tB := tA + float64(tree.MaxDepth+1)*slotB
		if x0.Trace.Enabled() || x0.Metrics != nil {
			// Node-affine to the base station: this runs inside an event
			// handler, where a sharded engine needs the executing region.
			x0.Sim.ScheduleNode(topology.BaseStation, topology.BaseStation, tB, func() {
				x0.span(trace.KindPhaseEnd, topology.BaseStation, -1, PhaseFilterDissem, 0)
				x0.span(trace.KindPhaseStart, topology.BaseStation, -1, PhaseFinalCollect, 0)
			})
		}
		for i := 1; i < n; i++ {
			id := topology.NodeID(i)
			if !tree.Reachable(id) {
				continue
			}
			deadline := tB + float64(tree.MaxDepth-tree.Depth[id])*slotC
			x0.Sim.ScheduleNode(topology.BaseStation, id, deadline, func() {
				g.forwardGroupTuples(x0, p0, id, &states[id], m)
			})
		}
		tEnd = tB + float64(tree.MaxDepth+1)*slotC
		x0.Sim.ScheduleNode(topology.BaseStation, topology.BaseStation, tEnd, func() {
			x0.span(trace.KindPhaseEnd, topology.BaseStation, -1, PhaseFinalCollect, 0)
			bsT := &states[topology.BaseStation]
			dedup := 0
			for _, gt := range bsT.gfinals {
				if gt.mask&(gt.mask-1) != 0 {
					dedup++ // shipped once, wanted by >= 2 queries
				}
			}
			x0.Metrics.observeMQODedup(dedup)
			// Fan the shared stream back out: member j's table is the
			// Treecut tuples (which bypass the filter for every member)
			// plus the collected tuples whose bitmap has bit j.
			for j := range execs {
				bit := uint64(1) << uint(j)
				tuples := append([]finalTuple(nil), bsT.fullsIn...)
				for _, gt := range bsT.gfinals {
					if gt.mask&bit != 0 {
						tuples = append(tuples, gt.t)
					}
				}
				rows, contrib := exactJoin(execs[j], tuples)
				// One fan-out span per member, tagged with the member's
				// own trace ID: the only shared-round events attributed
				// to an individual query rather than the group.
				x0.Trace.SpanTagged(tEnd, trace.KindFanout, topology.BaseStation, -1,
					PhaseFinalCollect, len(rows), c.members[j].tag)
				results[c.members[j].idx] = &Result{
					Columns:           columnsOf(execs[j].Query),
					Rows:              rows,
					ContributingNodes: len(contrib),
					MemberNodes:       p0.members,
					Complete:          completeA && finalComplete(plans[j], filters[j], tuples),
					ResponseTime:      tEnd - start,
				}
			}
			s.cont.Rounds++
		})
	})
	x0.Sim.Run()

	for i := range states {
		s.Memory.fold(&states[i].sensNode)
	}

	bsT := &states[topology.BaseStation]
	if x0.Net.Reliable() {
		// One scoped recovery over the union of the members' needs, then
		// a per-member exact finish from the shared (recovered) have-set:
		// extra tuples add no rows, and the node-id sort makes the tables
		// byte-identical to independent reliable runs.
		needs := make([]map[topology.NodeID]bool, m)
		unionNeed := make(map[topology.NodeID]bool)
		for j := range execs {
			needs[j] = contributorSet(execs[j], plans[j])
			for id := range needs[j] {
				unionNeed[id] = true
			}
		}
		have := tupleIndex(bsT.fullsIn)
		for _, gt := range bsT.gfinals {
			if _, ok := have[gt.t.node]; !ok {
				have[gt.t.node] = gt.t
			}
		}
		rounds, _ := runScopedRecovery(x0, p0, unionNeed, have, standDown)
		for j := range execs {
			finishReliable(execs[j], plans[j], results[c.members[j].idx],
				have, missingFrom(needs[j], have), rounds, start)
		}
	} else {
		for j := range execs {
			res := results[c.members[j].idx]
			if res != nil && !res.Complete {
				haveJ := tupleIndex(bsT.fullsIn)
				bit := uint64(1) << uint(j)
				for _, gt := range bsT.gfinals {
					if gt.mask&bit != 0 {
						if _, ok := haveJ[gt.t.node]; !ok {
							haveJ[gt.t.node] = gt.t
						}
					}
				}
				annotateIncomplete(execs[j], missingFrom(contributorSet(execs[j], plans[j]), haveJ), res)
			}
		}
	}
	return nil
}

// onGroupFilter is SENSJoin.onFilter over the merged broadcast: the
// union filter is reconstructed through the shared incremental state,
// and the per-key masks replace the boolean match with a query set.
func (g *QueryGroup) onGroupFilter(x *Exec, p *plan, o Options, s *SENSJoin,
	id topology.NodeID, st *groupNode, from topology.NodeID, gm *groupFilterMsg, m int, fullMask uint64) {
	if st.gotFilter {
		return
	}
	st.gotFilter = true

	filter, ok := s.applyFilterMsg(id, from, gm.fm)
	if ok && len(gm.masks) != len(filter) {
		// The masks always describe the sender's full key set; a length
		// mismatch means the reconstruction diverged — be conservative.
		ok = false
	}
	if !ok {
		if p.nodes[id].flags != 0 {
			st.ownMask = fullMask
		}
		for _, tt := range st.proxied {
			st.proxyG = append(st.proxyG, groupTuple{t: tt, mask: fullMask})
		}
		if st.activeChildren > 0 {
			g.sendGroupFilter(x, id, &st.sensNode, &groupFilterMsg{fm: assumeAllMsg()}, m)
		}
		return
	}

	masks := gm.masks
	st.memFilterBytes = gm.fm.setBytes + maskBytes(len(filter), m)
	if nd := &p.nodes[id]; nd.flags != 0 {
		if i := findKey(filter, nd.key); i >= 0 {
			st.ownMask = masks[i] // present keys always carry a non-zero mask
		} else {
			x.span(trace.KindSuppress, id, id, PhaseFilterDissem, 0)
		}
	}
	for _, tt := range st.proxied {
		if i := findKey(filter, p.keyOf(tt)); i >= 0 {
			st.proxyG = append(st.proxyG, groupTuple{t: tt, mask: masks[i]})
		} else {
			x.span(trace.KindSuppress, id, tt.node, PhaseFilterDissem, 0)
		}
	}
	if st.activeChildren == 0 {
		return
	}
	sub, subMasks := filter, masks
	if !o.DisableSelectiveForwarding && !st.overflow {
		sub = quadtree.IntersectKeys(filter, st.subtreeKeys)
		if pruned := len(filter) - len(sub); pruned > 0 {
			x.span(trace.KindPrune, id, -1, PhaseFilterDissem, pruned)
		}
		subMasks = realignMasks(filter, masks, sub)
	}
	if len(sub) == 0 {
		return
	}
	subBytes := gm.fm.setBytes // sub ⊆ filter: equal lengths, equal sets
	if len(sub) != len(filter) {
		subBytes = o.Rep.SetBytes(p, sub)
	}
	out := s.buildFilterMsg(p, o, id, sub, subBytes, st.childNeedsFull)
	g.sendGroupFilter(x, id, &st.sensNode, &groupFilterMsg{fm: out, masks: subMasks}, m)
}

// sendGroupFilter transmits a merged filter message like sendFilter,
// charging the mask bytes on top of the (possibly delta) key set.
func (g *QueryGroup) sendGroupFilter(x *Exec, id topology.NodeID, st *sensNode, gm *groupFilterMsg, m int) {
	size := gm.fm.size
	bitmap := 0
	if gm.fm.mode != fmAssumeAll {
		bitmap = maskBytes(len(gm.masks), m)
		size += bitmap
	}
	x.Metrics.observeMQOBroadcast(bitmap)
	if !x.Net.Reliable() {
		x.Net.Send(netsim.Message{
			Kind: kindFilter, Src: id, Dst: netsim.BroadcastID,
			Phase: PhaseFilterDissem, Size: size, Payload: gm,
		})
		return
	}
	for _, ch := range st.children {
		x.Net.Send(netsim.Message{
			Kind: kindFilter, Src: id, Dst: ch,
			Phase: PhaseFilterDissem, Size: size, Payload: gm,
		})
	}
}

// forwardGroupTuples is the phase-C step: a tuple wanted by k >= 1
// member queries ships once with its membership bitmap.
func (g *QueryGroup) forwardGroupTuples(x *Exec, p *plan, id topology.NodeID, st *groupNode, m int) {
	if st.cut {
		return
	}
	tuples := st.gfinals
	tuples = append(tuples, st.proxyG...)
	if st.ownMask != 0 {
		tuples = append(tuples, groupTuple{t: p.tuple(id), mask: st.ownMask})
	}
	if len(tuples) == 0 {
		return
	}
	size := 0
	for _, gt := range tuples {
		size += gt.t.bytes
	}
	bitmap := len(tuples) * perTupleMaskBytes(m)
	size += bitmap
	x.Metrics.observeMQOBitmap(bitmap)
	x.Net.Send(netsim.Message{
		Kind: kindFinal, Src: id, Dst: x.Tree.Parent[id],
		Phase: PhaseFinalCollect, Size: size, Payload: tuples,
	})
}
