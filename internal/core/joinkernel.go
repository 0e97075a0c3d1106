package core

import (
	"cmp"
	"math"
	"math/bits"
	"slices"
	"sort"

	"sensjoin/internal/query"
	"sensjoin/internal/topology"
)

// Predicate-indexed exact-join kernel.
//
// The base station's final join (paper §IV-D) was an O(∏|Rᵢ|) nested
// loop over the complete tuples. Almost every workload condition is an
// equality or a band constraint (see query.ShapeOf), so the kernel
// replaces the inner scans with per-level probe structures: hash
// chains on an equality attribute, or a sorted array probed with a
// binary-searched value window for a band constraint. Levels with no
// indexable condition fall back to the scan the seed used.
//
// Exactness: the probe structures only restrict *candidate* enumeration.
// Every conjunct — including the one backing an index — is still
// evaluated through its compiled closure at the first level where all
// its relations are bound, so a combination is emitted iff the nested
// loop would emit it. Band windows are widened by one ulp on each side
// (and band interval constants by one ulp at plan time) so that
// floating-point rounding of "a - b OP c" can never push a true match
// outside the window; hash probing relies on Go map float64 keys
// matching == semantics exactly (±0 collide), and NaN is never chained.
//
// Determinism: the nested loop emitted rows in lexicographic order of
// the per-level tuple indexes. Index probing enumerates in a different
// order, so each match records its rank — the combination's position in
// that lexicographic order, from which the combination itself can be
// read back — and matches are replayed in rank order
// through the identical emission code (row slab, aggregation,
// contributing-node set). Output is therefore byte-identical to the
// seed's, including the order of floating-point accumulation in
// SUM/AVG. When the planner keeps the original scan order (no indexable
// condition, or rank arithmetic would overflow), rows stream directly
// without the rank buffer, exactly like the seed.

// accessPath is a join level's candidate enumeration strategy.
type accessPath int8

const (
	pathScan accessPath = iota
	pathHash
	pathBand
)

func (p accessPath) String() string {
	switch p {
	case pathHash:
		return "hash"
	case pathBand:
		return "band"
	default:
		return "scan"
	}
}

// joinPlanInfo records the kernel's planning decision for tests.
type joinPlanInfo struct {
	// Order lists the FROM indexes in probe order.
	Order []int
	// Paths[i] is the access path of Order[i].
	Paths []string
	// Streamed reports whether rows streamed in enumeration order
	// (pure scan plan) instead of the rank-ordered replay.
	Streamed bool
}

// joinPlanHook, when non-nil, receives every kernel plan. Tests use it
// to assert which access path ran; it must stay nil outside tests.
var joinPlanHook func(joinPlanInfo)

// levelPlan is one join level's planned access.
type levelPlan struct {
	level int
	path  accessPath
	// For hash/band paths: the conjunct backing the index, its attribute
	// on this level (self) and on an earlier-bound level (other).
	self, other query.AttrRef
	// Band geometry: value(L) ± value(R) ∈ [lo, hi], pre-widened by one
	// ulp per side; selfIsL orients the window formula.
	sum     bool
	selfIsL bool
	lo, hi  float64
	// conds lists conjunct indexes to evaluate at this level: every
	// conjunct whose relations are all bound once this level is.
	conds []int
}

// joinPlan is the kernel's full decision.
type joinPlan struct {
	order []levelPlan
	// strides give each level's rank weight in the original nested-loop
	// order: rank = Σ tupleIndex[level] * strides[level].
	strides []uint64
	// stream is set when enumeration order equals nested-loop order, so
	// emission can skip the rank buffer.
	stream bool
}

func (p joinPlan) info() joinPlanInfo {
	in := joinPlanInfo{Streamed: p.stream}
	for _, lp := range p.order {
		in.Order = append(in.Order, lp.level)
		in.Paths = append(in.Paths, lp.path.String())
	}
	return in
}

// planStore is the storage a join plan is filled into, grow-only and
// kept in the kernel scratch: the plan planJoin or scanPlan returns is
// valid until the next plan on the same store.
type planStore struct {
	order   []levelPlan
	chosen  []bool
	posOf   []int // per FROM index: its position in order
	at      []int // per conjunct: the position it is evaluated at
	conds   []int // every position's conds, one after the other
	strides []uint64
}

// planJoin decides join order and per-level access paths for both of
// the base station's joins: the exact join over tuples (joinKernel) and
// the filter join over cells (cellJoin). lens holds the candidate count
// per FROM index, tuples or keys; condRels the referenced relations per
// conjunct. The order heuristic is a deterministic greedy
// selectivity estimate: start at the smallest relation, then prefer a
// level reachable through an equality (assumed most selective), then a
// band, then the smallest remaining relation; all ties break toward the
// lower FROM index. Ranks are the exact join's concern: the plan leaves
// strides unset. The plan is filled into ps.
func planJoin(ps *planStore, n int, lens []int, shape query.JoinShape, condRels [][]int) joinPlan {
	if !shape.Indexable() || n < 2 {
		return scanPlan(ps, n, condRels)
	}

	chosen := sized(ps.chosen, n)
	clear(chosen)
	ps.chosen = chosen
	order := sized(ps.order, n)[:0]
	// Start level: smallest relation (scan — nothing is bound yet).
	start := 0
	for i := 1; i < n; i++ {
		if lens[i] < lens[start] {
			start = i
		}
	}
	order = append(order, levelPlan{level: start, path: pathScan})
	chosen[start] = true

	for pos := 1; pos < n; pos++ {
		best := levelPlan{level: -1, path: pathScan}
		for level := 0; level < n; level++ {
			if chosen[level] {
				continue
			}
			lp := bestAccess(level, chosen, shape)
			if best.level < 0 || betterAccess(lp, best, lens) {
				best = lp
			}
		}
		order = append(order, best)
		chosen[best.level] = true
	}
	ps.order = order

	plan := joinPlan{order: order}
	ps.assignConds(condRels)
	plan.stream = pureScan(plan.order)
	return plan
}

// scanPlan is the seed-equivalent fallback: original level order, scans
// everywhere, rows streamed in enumeration order. The plan is filled
// into ps.
func scanPlan(ps *planStore, n int, condRels [][]int) joinPlan {
	ps.order = sized(ps.order, n)
	for i := range ps.order {
		ps.order[i] = levelPlan{level: i, path: pathScan}
	}
	ps.assignConds(condRels)
	return joinPlan{order: ps.order, stream: true}
}

// rankStrides computes the lexicographic rank weights into ps, refusing
// (ok false) when the cross-product size would overflow rank arithmetic.
func (ps *planStore) rankStrides(n int, lens []int) ([]uint64, bool) {
	ps.strides = sized(ps.strides, n)
	strides := ps.strides
	total := uint64(1)
	for i := n - 1; i >= 0; i-- {
		strides[i] = total
		l := uint64(lens[i])
		if l == 0 {
			l = 1
		}
		if total > math.MaxInt64/l {
			return strides, false
		}
		total *= l
	}
	return strides, true
}

// bestAccess picks the best index access for level given the bound set:
// hash over the first connecting equality, else a band window, else a
// scan.
func bestAccess(level int, bound []bool, shape query.JoinShape) levelPlan {
	for _, eq := range shape.Eq {
		if eq.L.Rel == level && bound[eq.R.Rel] {
			return levelPlan{level: level, path: pathHash, self: eq.L, other: eq.R}
		}
		if eq.R.Rel == level && bound[eq.L.Rel] {
			return levelPlan{level: level, path: pathHash, self: eq.R, other: eq.L}
		}
	}
	for _, b := range shape.Band {
		lp := levelPlan{level: level, path: pathBand, sum: b.Sum,
			lo: nextDown(b.Lo), hi: nextUp(b.Hi)}
		if b.L.Rel == level && bound[b.R.Rel] {
			lp.self, lp.other, lp.selfIsL = b.L, b.R, true
			return lp
		}
		if b.R.Rel == level && bound[b.L.Rel] {
			lp.self, lp.other, lp.selfIsL = b.R, b.L, false
			return lp
		}
	}
	return levelPlan{level: level, path: pathScan}
}

// betterAccess orders candidate levels: indexed beats scan, hash beats
// band, then fewer tuples, then lower FROM index.
func betterAccess(a, b levelPlan, lens []int) bool {
	rank := func(p accessPath) int {
		switch p {
		case pathHash:
			return 0
		case pathBand:
			return 1
		default:
			return 2
		}
	}
	if ra, rb := rank(a.path), rank(b.path); ra != rb {
		return ra < rb
	}
	if lens[a.level] != lens[b.level] {
		return lens[a.level] < lens[b.level]
	}
	return a.level < b.level
}

// assignConds attaches each conjunct to the first position of ps.order
// where all its relations are bound (identical pruning to the seed's
// max-rel rule when the order is the identity). Each position's list is
// a capped slice of ps.conds, in conjunct order.
func (ps *planStore) assignConds(condRels [][]int) {
	order := ps.order
	ps.posOf = sized(ps.posOf, len(order))
	for pos, lp := range order {
		ps.posOf[lp.level] = pos
	}
	ps.at = sized(ps.at, len(condRels))
	for ci, rels := range condRels {
		at := 0
		for _, r := range rels {
			at = max(at, ps.posOf[r])
		}
		ps.at[ci] = at
	}
	conds := sized(ps.conds, len(condRels))[:0]
	for pos := range order {
		from := len(conds)
		for ci, at := range ps.at {
			if at == pos {
				conds = append(conds, ci)
			}
		}
		order[pos].conds = conds[from:len(conds):len(conds)]
	}
	ps.conds = conds
}

func pureScan(order []levelPlan) bool {
	for pos, lp := range order {
		if lp.path != pathScan || lp.level != pos {
			return false
		}
	}
	return true
}

func nextDown(x float64) float64 {
	if math.IsNaN(x) {
		return math.Inf(-1)
	}
	return math.Nextafter(x, math.Inf(-1))
}

func nextUp(x float64) float64 {
	if math.IsNaN(x) {
		return math.Inf(1)
	}
	return math.Nextafter(x, math.Inf(1))
}

// bandWindow computes the conservative candidate window for this level's
// attribute given the bound-side value o. An empty window (lo > hi)
// means no candidates; NaN arithmetic degrades to an unbounded side.
func (lp *levelPlan) bandWindow(o float64) (lo, hi float64) {
	if math.IsNaN(o) {
		return 1, 0 // NaN never satisfies a band comparison
	}
	switch {
	case lp.sum: // self ∈ [Lo - o, Hi - o]
		lo, hi = lp.lo-o, lp.hi-o
	case lp.selfIsL: // self - o ∈ [Lo, Hi]
		lo, hi = o+lp.lo, o+lp.hi
	default: // o - self ∈ [Lo, Hi]
		lo, hi = o-lp.hi, o-lp.lo
	}
	lo, hi = nextDown(lo), nextUp(hi)
	return lo, hi
}

// cellWindow is bandWindow on the cell domain: the conservative window
// of self values that possibly satisfy this level's index conjunct for
// some bound-side value in the cell o. A hash level carries lo = hi = 0
// and neither orientation flag, so an equality is the band [0, 0]:
// self ∈ o, the overlapping cells. Arithmetic on an edge cell's ±Inf
// can give NaN, which nextDown and nextUp turn into an unbounded side.
func (lp *levelPlan) cellWindow(o query.Interval) (lo, hi float64) {
	switch {
	case lp.sum: // self ∈ [Lo - o.Hi, Hi - o.Lo]
		lo, hi = lp.lo-o.Hi, lp.hi-o.Lo
	case lp.selfIsL: // self - o ∈ [Lo, Hi]
		lo, hi = o.Lo+lp.lo, o.Hi+lp.hi
	default: // o - self ∈ [Lo, Hi]
		lo, hi = o.Lo-lp.hi, o.Hi-lp.lo
	}
	return nextDown(lo), nextUp(hi)
}

// probeEntry is one tuple of a band-sorted level.
type probeEntry struct {
	v  float64
	ti int32
}

// kernelProbe is a built per-position probe structure. A hash level
// chains its tuples by value: head maps a value to its first tuple index
// plus one, next[ti] is the chain's next index plus one (0 ends it), and
// a chain runs in ascending tuple order. A band level sorts its tuples
// by value.
type kernelProbe struct {
	head      map[float64]int32
	headPeak  int // the most values head has held since it was made
	next      []int32
	sorted    []probeEntry
	probeSlot int // global slot of the bound-side attribute
}

// kernelScratch is the kernel's working storage, grow-only and owned by
// the Runner (runScratch): the per-alias candidate lists, the extracted
// value vectors, the probe structures, the per-level bookkeeping, the match
// list (one rank per match) and the contributor list with the node
// bitset it is read from. Nothing but the contributor list outlives a
// call — a plain result's rows are carved from a result block
// (resultStore) — and that list only until the next call, so the inner
// slices are reused too.
type kernelScratch struct {
	byAlias [][]finalTuple
	pre     [][]float64
	used    [][]bool // per level: the tuple appears in some emitted row
	lens    []int
	probes  []kernelProbe // per position; their storage stays for the next call
	assign  []int32
	vals    []float64
	ranks   []uint64
	nodes   []uint64 // node bitset, all zero between calls
	contrib []topology.NodeID
	plan    planStore // the exact join's plan, and the cell join's
}

// sized returns s with length n, reusing its storage when that is large
// enough; the contents are unspecified.
func sized[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// levels sizes the per-level lists for an n-way join.
func (sc *kernelScratch) levels(n int) {
	for len(sc.pre) < n {
		sc.byAlias = append(sc.byAlias, nil)
		sc.pre = append(sc.pre, nil)
		sc.used = append(sc.used, nil)
		sc.probes = append(sc.probes, kernelProbe{})
	}
}

// columnSource resolves an attribute name to its sampled values indexed
// by node id. The execution's *field.Snapshot is the production source;
// the kernel tests join synthetic columns (NaN and infinities included,
// which no environment produces) through the same parameter.
type columnSource interface {
	Column(name string) []float64
}

// joinOut is what the exact join hands back: the rows, ordered and
// limited (nil when none were built), how many rows the result holds
// (len(rows) when they were built), the result block they are carved
// from (nil when they are on the heap or were not built) and the
// contributing nodes, ascending and once each; the list is the kernel
// scratch's and valid until the next join on it.
type joinOut struct {
	rows    []Row
	n       int
	block   *resultBlock
	contrib []topology.NodeID
}

// joinKernel computes the exact join over the per-alias candidate lists.
// With build it evaluates the SELECT clause over values read from cols
// and returns the rows; without, it only enumerates the matches, marking
// the contributors and counting the rows a plain result would hold (LIMIT
// applied) — no SELECT evaluation, rank list, replay or result block. See
// the package comment above for the exactness and determinism argument.
func joinKernel(x *Exec, cols columnSource, byAlias [][]finalTuple, build bool) joinOut {
	n := len(byAlias)
	sc := &x.run().kernel // sized for n levels by exactJoinOver

	// The compiled program — slot layout, condition/SELECT/GROUP BY
	// closures, join shape — depends only on the query (compileKernel).
	prog := x.prog
	slotsOf := prog.slotsOf
	compiledConds := prog.compiledConds
	condRels := prog.condRels
	selects := prog.selects
	groupBy := prog.groupBy

	// Extract each candidate tuple's referenced values once: one read
	// per tuple per attribute from the column, not per combination.
	sc.lens = sized(sc.lens, n)
	lens := sc.lens
	pre := sc.pre[:n]
	for level, ts := range byAlias {
		lens[level] = len(ts)
		slots := slotsOf[level]
		flat := sized(pre[level], len(ts)*len(slots))
		for k, s := range slots {
			col := cols.Column(s.name)
			for ti, t := range ts {
				flat[ti*len(slots)+k] = col[t.node]
			}
		}
		pre[level] = flat
		sc.used[level] = sized(sc.used[level], len(ts))
		clear(sc.used[level])
	}
	used := sc.used[:n]

	// Locate an attribute's position within a level's slot list (it was
	// resolved during condition compilation, so it exists).
	kIndexOf := func(level int, name string) int {
		for k, s := range slotsOf[level] {
			if s.name == name {
				return k
			}
		}
		return -1
	}
	slotFor := func(ref query.AttrRef) int {
		return slotsOf[ref.Rel][kIndexOf(ref.Rel, ref.Name)].slot
	}

	// An indexed plan replays its matches by rank, so it needs rank
	// arithmetic that cannot overflow; otherwise the scan order streams.
	strides, ok := sc.plan.rankStrides(n, lens)
	var plan joinPlan
	if ok {
		plan = planJoin(&sc.plan, n, lens, prog.shape, condRels)
	} else {
		plan = scanPlan(&sc.plan, n, condRels)
	}
	plan.strides = strides
	if joinPlanHook != nil {
		joinPlanHook(plan.info())
	}

	// Build the probe structures the plan calls for.
	probes := sc.probes[:n]
	for pos := range plan.order {
		lp := &plan.order[pos]
		level := lp.level
		stride := len(slotsOf[level])
		flat := pre[level]
		pr := &probes[pos]
		switch lp.path {
		case pathHash:
			k := kIndexOf(level, lp.self.Name)
			if pr.head == nil || pr.headPeak > 4*max(lens[level], 1) {
				// A map never shrinks: after a join four times this
				// level's size, a fresh one is cheaper to clear.
				pr.head, pr.headPeak = make(map[float64]int32, lens[level]), 0
			}
			clear(pr.head)
			pr.next = sized(pr.next, lens[level])
			for ti := lens[level] - 1; ti >= 0; ti-- {
				v := flat[ti*stride+k]
				if math.IsNaN(v) {
					continue // NaN never equals anything
				}
				pr.next[ti] = pr.head[v]
				pr.head[v] = int32(ti) + 1
			}
			pr.headPeak = max(pr.headPeak, len(pr.head))
			pr.probeSlot = slotFor(lp.other)
		case pathBand:
			k := kIndexOf(level, lp.self.Name)
			entries := slices.Grow(pr.sorted[:0], lens[level])
			for ti := 0; ti < lens[level]; ti++ {
				v := flat[ti*stride+k]
				if math.IsNaN(v) {
					continue // NaN never satisfies a band comparison
				}
				entries = append(entries, probeEntry{v: v, ti: int32(ti)})
			}
			slices.SortFunc(entries, func(a, b probeEntry) int {
				if c := cmp.Compare(a.v, b.v); c != 0 {
					return c
				}
				return cmp.Compare(a.ti, b.ti)
			})
			pr.sorted, pr.probeSlot = entries, slotFor(lp.other)
		}
	}

	// One sizing rule: a result is stored once, at its size. A query that
	// aggregates or groups folds every combination into its aggState
	// through one scratch row. A plain result's rows are carved from a
	// slab: an indexed plan knows its match count before it emits and
	// takes the row headers and the slab from a result block of the
	// Runner's that fits them (below, at the replay), which the caller
	// may hand back with Result.Release; a streaming plan learns its size
	// only by emitting, so each slab it fills is followed by one twice as
	// long, up to streamSlabCap rows. Carved rows stay valid because full
	// slabs are abandoned, never reused.
	const streamSlabCap = 4096
	width := len(selects)
	aggregated := hasAggregates(x.Query.Select)
	grouped := len(x.Query.GroupBy) > 0
	folds := grouped || aggregated
	var slab []float64
	nextSlab := 1
	newRow := func() Row {
		if len(slab) < width {
			slab = make([]float64, nextSlab*width)
			nextSlab = min(2*nextSlab, streamSlabCap)
		}
		row := Row(slab[:width:width])
		slab = slab[width:]
		return row
	}
	var scratch Row
	var agg *aggState
	if folds && build {
		scratch = make(Row, width)
		agg = newAggState(x.Query.Select)
	}

	var rows []Row
	var block *resultBlock
	groups := make(map[string]*aggState)
	var groupKeys []string
	sc.vals = sized(sc.vals, prog.nslots)
	vals := sc.vals

	// emit runs the seed's per-combination body: fill the slot vector,
	// evaluate SELECT, record contributors, aggregate or append.
	emit := func(assign []int32) {
		for level := 0; level < n; level++ {
			slots := slotsOf[level]
			flat := pre[level]
			base := int(assign[level]) * len(slots)
			for k, s := range slots {
				vals[s.slot] = flat[base+k]
			}
		}
		row := scratch
		if !folds {
			row = newRow()
		}
		for i, f := range selects {
			row[i] = f(vals)
		}
		for level, ti := range assign {
			used[level][ti] = true
		}
		switch {
		case grouped:
			key := groupKeyOfCompiled(groupBy, vals)
			g := groups[key]
			if g == nil {
				g = newAggState(x.Query.Select)
				groups[key] = g
				groupKeys = append(groupKeys, key)
			}
			g.add(row)
		case aggregated:
			agg.add(row)
		default:
			rows = append(rows, row)
		}
	}

	// Enumerate matches. Streaming plans emit inline (enumeration order
	// is nested-loop order); indexed plans record each match's rank and
	// replay below.
	sc.assign = sized(sc.assign, n)
	assign := sc.assign
	ranks := sc.ranks[:0]
	// Level 0 has the largest stride, so a plan that starts there (a scan
	// in index order) appends the ranks of one outer tuple after those of
	// the tuple before it: sorting each tuple's short run as it completes
	// leaves the whole list sorted.
	outerSorted := !plan.stream && plan.order[0].level == 0
	matches := 0
	var recurse func(pos int, rank uint64)
	recurse = func(pos int, rank uint64) {
		if pos == n {
			switch {
			case !build:
				for level, ti := range assign {
					used[level][ti] = true
				}
				matches++
			case plan.stream:
				emit(assign)
			default:
				ranks = append(ranks, rank)
			}
			return
		}
		lp := &plan.order[pos]
		level := lp.level
		slots := slotsOf[level]
		flat := pre[level]
		stride := len(slots)
		try := func(ti int32) {
			base := int(ti) * stride
			for k, s := range slots {
				vals[s.slot] = flat[base+k]
			}
			for _, ci := range lp.conds {
				if !compiledConds[ci](vals) {
					return
				}
			}
			assign[level] = ti
			recurse(pos+1, rank+uint64(ti)*plan.strides[level])
		}
		switch lp.path {
		case pathHash:
			pr := &probes[pos]
			for ti := pr.head[vals[pr.probeSlot]]; ti != 0; ti = pr.next[ti-1] {
				try(ti - 1)
			}
		case pathBand:
			lo, hi := lp.bandWindow(vals[probes[pos].probeSlot])
			s := probes[pos].sorted
			i := sort.Search(len(s), func(i int) bool { return s[i].v >= lo })
			for ; i < len(s) && s[i].v <= hi; i++ {
				try(s[i].ti)
			}
		default:
			for ti := 0; ti < lens[level]; ti++ {
				from := len(ranks)
				try(int32(ti))
				if outerSorted && pos == 0 {
					slices.Sort(ranks[from:])
				}
			}
		}
	}
	recurse(0, 0)

	if !build {
		if x.Query.Limit > 0 {
			matches = min(matches, x.Query.Limit)
		}
		return joinOut{n: matches, contrib: sc.contributors(byAlias, used)}
	}
	if !plan.stream {
		if !folds && len(ranks) > 0 {
			block = x.run().results.take(len(ranks), len(ranks)*width)
			rows = block.rows[:0:len(ranks)]
			slab = block.cells[:len(ranks)*width]
		}
		// Replay in nested-loop order: ranks are distinct, so this order
		// is total and exactly the seed's emission order. A rank is the
		// combination written in the mixed radix of the level sizes, so
		// it is all a match needs to record: the tuple indexes come back
		// out digit by digit.
		if !outerSorted {
			slices.Sort(ranks)
		}
		for _, rank := range ranks {
			for level := range assign {
				assign[level] = int32(rank / plan.strides[level] % uint64(lens[level]))
			}
			emit(assign)
		}
		sc.ranks = ranks
	}

	switch {
	case grouped:
		// Deterministic group order: sorted by group key; an ORDER BY
		// re-sorts below.
		sort.Strings(groupKeys)
		for _, key := range groupKeys {
			rows = append(rows, groups[key].rows()...)
		}
	case aggregated:
		rows = agg.rows()
	}
	rows = applyOrderLimit(x.Query, rows)
	return joinOut{rows: rows, n: len(rows), block: block, contrib: sc.contributors(byAlias, used)}
}

// contributors lists the nodes of the tuples used marks, built once: a
// tuple marks a flag per emitted row, its node a bit in the node bitset,
// and the set bits read in order are the distinct ids, sorted.
func (sc *kernelScratch) contributors(byAlias [][]finalTuple, used [][]bool) []topology.NodeID {
	set := sc.nodes
	for level, ts := range byAlias {
		for ti, t := range ts {
			if used[level][ti] {
				w := int(t.node) / 64
				if w >= len(set) {
					set = append(set, make([]uint64, w+1-len(set))...)
				}
				set[w] |= 1 << (uint(t.node) % 64)
			}
		}
	}
	ids := sc.contrib[:0]
	for w, word := range set {
		for ; word != 0; word &= word - 1 {
			ids = append(ids, topology.NodeID(w*64+bits.TrailingZeros64(word)))
		}
		set[w] = 0
	}
	sc.nodes, sc.contrib = set, ids
	return ids
}
