package core

import (
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
func computeFilter(p *plan, keys []zorder.Key, useIndex bool) []zorder.Key {
	x := p.x
	n := len(x.Query.From)
	conds := x.Analysis.JoinConds
	// Band-join fast path: a difference or band condition between two
	// relations indexes the partner search (see bandjoin.go). The result
	// is identical to the generic enumeration.
	if useIndex && n == 2 {
		for _, cond := range conds {
			if bc, ok := detectBandCond(p, cond); ok {
				return computeFilterBand(p, keys, bc)
			}
		}
	}
	if len(conds) == 0 {
		// Cross join: every key participates (if every alias has keys).
		for i := 0; i < n; i++ {
			if len(keysOfAlias(p, keys, i)) == 0 {
				return nil
			}
		}
		return append([]zorder.Key(nil), keys...)
	}
	// Constant predicates: if any is definitely false, nothing joins.
	for _, c := range x.Analysis.ConstPreds {
		if !c.Truth(emptyBounds{}).Possible() {
			return nil
		}
	}

	// Index-based evaluation over the sorted unique key universe: alias
	// partitions, marking and cell bounds all live in pooled scratch
	// buffers (see filterscratch.go). Marking is idempotent, so working
	// on the deduplicated universe yields the same filter as the seed's
	// map-based enumeration over the raw key stream.
	s := getFilterScratch()
	defer putFilterScratch(s)
	uniq := s.setUniq(keys)
	if !s.fillAliases(p, uniq, n) {
		return nil
	}
	s.fillBounds(p, uniq)
	marked := s.markedBuf(len(uniq))
	assign := s.assignBuf(n)
	benv := s.boundsEnv(p, assign)

	// Backtracking n-way join over keys with early pruning: a condition
	// is checked as soon as all aliases it references are bound.
	checks := s.fillChecks(conds, n)

	var recurse func(level int)
	recurse = func(level int) {
		if level == n {
			for _, idx := range assign {
				marked[idx] = true
			}
			return
		}
		for _, idx := range s.aliasIdx[level] {
			assign[level] = idx
			ok := true
			for _, ci := range checks[level] {
				if !conds[ci].Truth(benv).Possible() {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			// Skip fully-marked assignments at the last level: marking
			// again adds nothing (the dominant saving for selective
			// queries).
			if level == n-1 {
				all := marked[idx]
				if all {
					for _, prev := range assign[:level] {
						if !marked[prev] {
							all = false
							break
						}
					}
				}
				if all {
					continue
				}
			}
			recurse(level + 1)
		}
	}
	recurse(0)

	return collectMarked(uniq, marked)
}

// keysOfAlias filters keys whose flags include alias i.
func keysOfAlias(p *plan, keys []zorder.Key, i int) []zorder.Key {
	n := len(p.x.Query.From)
	flag := zorder.FlagFor(i, n)
	var out []zorder.Key
	for _, k := range keys {
		if p.grid.Flags(k)&flag != 0 {
			out = append(out, k)
		}
	}
	return out
}

// cellOf returns the value interval of a key's cell in dimension name.
func (p *plan) cellOf(k zorder.Key, name string) query.Interval {
	di, ok := p.dimIndex[name]
	if !ok {
		// A join condition referencing a non-join attribute cannot
		// happen (Analyze defines join attrs from join conditions), but
		// stay sound.
		return query.Everything()
	}
	_, lo, hi := p.grid.CellBounds(k)
	return query.Interval{Lo: lo[di], Hi: hi[di]}
}

// emptyBounds evaluates constant predicates (no attribute references).
type emptyBounds struct{}

// Range implements query.BoundsEnv.
func (emptyBounds) Range(query.AttrRef) query.Interval { return query.Everything() }

// exactJoin computes the final result (paper §IV-D): an exact n-way
// join over the complete tuples at the base station, followed by SELECT
// evaluation and optional aggregation. It returns the rows and the set
// of contributing nodes. Candidate enumeration runs on the
// predicate-indexed kernel (joinkernel.go); output is identical to the
// seed's nested loop, row for row and byte for byte.
func exactJoin(x *Exec, tuples []finalTuple) ([]Row, map[topology.NodeID]bool) {
	return exactJoinOver(x, x.snapshot(), tuples)
}

// exactJoinOver is exactJoin reading sensor values from cols.
func exactJoinOver(x *Exec, cols columnSource, tuples []finalTuple) ([]Row, map[topology.NodeID]bool) {
	n := len(x.Query.From)
	for _, c := range x.Analysis.ConstPreds {
		if !c.Eval(query.TupleEnv{Lookup: func(int, string) float64 { return 0 }}) {
			return nil, nil
		}
	}
	sc := &x.run().kernel
	sc.levels(n)
	byAlias := sc.byAlias[:n]
	for i := 0; i < n; i++ {
		flag := zorder.FlagFor(i, n)
		byAlias[i] = byAlias[i][:0]
		for _, t := range tuples {
			if t.flags&flag != 0 {
				byAlias[i] = append(byAlias[i], t)
			}
		}
		if len(byAlias[i]) == 0 {
			return nil, nil
		}
	}
	return joinKernel(x, cols, byAlias)
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
	p, err := buildPlan(x)
	if err != nil {
		return nil, err
	}
	var tuples []finalTuple
	for id := 1; id < x.Dep.N(); id++ {
		if p.nodes[id].flags != 0 {
			tuples = append(tuples, p.tuple(topology.NodeID(id)))
		}
	}
	rows, contrib := exactJoin(x, tuples)
	return &Result{
		Columns:           columnsOf(x.Query),
		Rows:              rows,
		ContributingNodes: len(contrib),
		MemberNodes:       p.members,
		Complete:          true,
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
