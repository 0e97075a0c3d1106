package core

import (
	"slices"
	"sort"
	"strconv"
	"strings"

	"sensjoin/internal/query"
	"sensjoin/internal/topology"
	"sensjoin/internal/zorder"
)

// computeFilter implements the base station's pre-computation join
// (paper §IV-A step 1a): it joins the collected join-attribute keys over
// cell intervals with tri-state logic and returns the keys that possibly
// participate in the result — the join filter. Quantization makes this a
// superset of the true participant set (false positives only, §V-B
// footnote 2).
func computeFilter(p *plan, keys []zorder.Key) []zorder.Key {
	// Constant predicates: if any is definitely false, nothing joins.
	for _, c := range p.x.Analysis.ConstPreds {
		if !c.Truth(emptyBounds{}).Possible() {
			return nil
		}
	}
	return cellJoin(p, keys)
}

// cellJoin is the exact-join planner run on its second domain, cells:
// a key is a box of value intervals, planJoin picks the level order and
// per-level access path from the query's join shape as it does for
// tuples, and the join marks every key that appears in some assignment
// whose join conditions are all possibly true. It returns the marked
// keys, sorted and duplicate-free.
//
// A band conjunct L ± R ∈ [Lo, Hi] becomes a value window over the
// self level's keys (levelPlan.cellWindow), an equality the band
// [0, 0]. The window only restricts candidate enumeration: it is a
// superset of the cells for which the backing conjunct is possibly
// true, and every candidate still passes the full tri-state check of
// its level's conjuncts, so the marked set is exactly the one the
// backtracking enumeration over all assignments marks (the
// computeFilterReference differential test). Ranks and streaming do
// not apply: marking is a set, idempotent and order-free.
func cellJoin(p *plan, keys []zorder.Key) []zorder.Key {
	x := p.x
	n := len(x.Query.From)
	s := getFilterScratch()
	defer putFilterScratch(s)
	uniq := s.setUniq(keys)
	if !s.fillAliases(p, uniq, n) {
		return nil
	}
	conds := x.Analysis.JoinConds
	s.fillBounds(p, uniq)
	marked := s.markedBuf(len(uniq))
	s.assign = sized(s.assign, n)
	assign := s.assign
	benv := s.boundsEnv(p, assign)
	nd := len(p.grid.Dims)

	order := planJoin(&x.run().kernel.plan, n, s.lens[:n], x.prog.shape, x.prog.condRels).order
	probes := s.fillProbes(p, order)

	var recurse func(pos int)
	recurse = func(pos int) {
		lp := &order[pos]
		cands := s.aliasIdx[lp.level]
		if lp.path != pathScan {
			pr := &probes[pos]
			lo, hi := lp.cellWindow(s.bounds[int(assign[lp.other.Rel])*nd+pr.other])
			cands = s.window(pr, nd, lo, hi)
		}
		// At the last level, skip assignments that are already fully
		// marked: marking again adds nothing (the dominant saving for
		// selective queries).
		last := pos == n-1
		skip := last
		for _, prev := range order[:pos] {
			skip = skip && marked[assign[prev.level]]
		}
	next:
		for _, idx := range cands {
			if skip && marked[idx] {
				continue
			}
			assign[lp.level] = idx
			for _, ci := range lp.conds {
				if !conds[ci].Truth(benv).Possible() {
					continue next
				}
			}
			if !last {
				recurse(pos + 1)
				continue
			}
			for _, a := range assign {
				marked[a] = true
			}
			skip = true
		}
	}
	recurse(0)

	return collectMarked(uniq, marked)
}

// emptyBounds evaluates constant predicates (no attribute references).
type emptyBounds struct{}

// Range implements query.BoundsEnv.
func (emptyBounds) Range(query.AttrRef) query.Interval { return query.Everything() }

// exactJoin computes the final result (paper §IV-D): an exact n-way
// join over the complete tuples at the base station, followed by SELECT
// evaluation and optional aggregation. A Result keeps the returned block
// for Release; a caller that drops the rows releases it. A plain query
// run WithoutRows builds no rows: the join returns their count. Candidate
// enumeration runs on the predicate-indexed kernel (joinkernel.go);
// output is identical to the seed's nested loop, row for row and byte
// for byte.
func exactJoin(x *Exec, tuples []finalTuple) joinOut {
	folds := len(x.Query.GroupBy) > 0 || hasAggregates(x.Query.Select)
	return exactJoinOver(x, x.snapshot(), tuples, folds || !x.withoutRows)
}

// joinContributors returns the nodes whose tuples appear in the exact
// join of tuples, ascending (valid until the execution's next join). It
// builds no rows, so it takes no result block.
func joinContributors(x *Exec, tuples []finalTuple) []topology.NodeID {
	return exactJoinOver(x, x.snapshot(), tuples, false).contrib
}

// exactJoinOver is the exact join reading sensor values from cols; build
// selects whether rows are built or only counted (joinKernel).
func exactJoinOver(x *Exec, cols columnSource, tuples []finalTuple, build bool) joinOut {
	n := len(x.Query.From)
	for _, c := range x.Analysis.ConstPreds {
		if !c.Eval(query.TupleEnv{Lookup: func(int, string) float64 { return 0 }}) {
			return joinOut{}
		}
	}
	sc := &x.run().kernel
	sc.levels(n)
	byAlias := sc.byAlias[:n]
	for i := 0; i < n; i++ {
		flag := zorder.FlagFor(i, n)
		size := 0
		for _, t := range tuples {
			if t.flags&flag != 0 {
				size++
			}
		}
		byAlias[i] = slices.Grow(byAlias[i][:0], size)
		for _, t := range tuples {
			if t.flags&flag != 0 {
				byAlias[i] = append(byAlias[i], t)
			}
		}
		if len(byAlias[i]) == 0 {
			return joinOut{}
		}
	}
	return joinKernel(x, cols, byAlias, build)
}

// groupKeyOfCompiled renders the grouping expressions' exact values as a
// string key (round-trip float formatting keeps distinct values distinct).
func groupKeyOfCompiled(exprs []query.CompiledNum, vals []float64) string {
	var b strings.Builder
	for _, f := range exprs {
		b.WriteString(strconv.FormatFloat(f(vals), 'g', -1, 64))
		b.WriteByte('|')
	}
	return b.String()
}

// applyOrderLimit sorts by the ORDER BY keys (full-row lexicographic
// tie-break keeps the order identical across join methods) and applies
// LIMIT.
func applyOrderLimit(q *query.Query, rows []Row) []Row {
	if len(q.OrderBy) > 0 {
		sort.SliceStable(rows, func(i, j int) bool {
			a, b := rows[i], rows[j]
			for _, k := range q.OrderBy {
				av, bv := a[k.Col-1], b[k.Col-1]
				if av != bv {
					if k.Desc {
						return av > bv
					}
					return av < bv
				}
			}
			for c := range a { // tie-break: full row, ascending
				if a[c] != b[c] {
					return a[c] < b[c]
				}
			}
			return false
		})
	}
	if q.Limit > 0 && len(rows) > q.Limit {
		rows = rows[:q.Limit]
	}
	return rows
}

// GroundTruth computes the query result directly from the snapshot,
// bypassing the network entirely. It is the oracle for correctness tests
// and for calibrating workload selectivity.
func GroundTruth(x *Exec) (*Result, error) {
	p := buildPlan(x)
	defer p.release()
	var tuples []finalTuple
	for id := 1; id < x.Dep.N(); id++ {
		if p.nodes[id].flags != 0 {
			tuples = append(tuples, p.tuple(topology.NodeID(id)))
		}
	}
	out := exactJoinOver(x, x.snapshot(), tuples, true) // an oracle's rows are always built
	return &Result{
		Columns:           columnsOf(x.Query),
		Rows:              out.rows,
		ContributingNodes: len(out.contrib),
		MemberNodes:       p.members,
		Complete:          true,
		block:             out.block,
	}, nil
}

// maskAlign computes the per-key membership masks of a shared-execution
// union filter: bit j of masks[i] is set iff union[i] is in filters[j]
// (member j's own filter). All inputs are sorted; one merge walk per
// member.
func maskAlign(union []zorder.Key, filters [][]zorder.Key) []uint64 {
	masks := make([]uint64, len(union))
	for j, f := range filters {
		bit := uint64(1) << uint(j)
		fi := 0
		for i, k := range union {
			for fi < len(f) && f[fi] < k {
				fi++
			}
			if fi < len(f) && f[fi] == k {
				masks[i] |= bit
			}
		}
	}
	return masks
}
