package query

import (
	"fmt"
	"sort"
)

// Analysis is the planner's view of a bound query: the WHERE clause split
// into per-relation local predicates and cross-relation join conditions,
// and the attribute sets each part of the protocol needs.
//
// The split drives the whole protocol (§IV): local predicates are
// evaluated on the node ("selections as early as possible"); join
// conditions define the join-attribute tuples (Definition 1) collected in
// the pre-computation; the shipped attributes are what the final phase
// (and the external join) must transport per tuple.
type Analysis struct {
	Query *Query
	// LocalPreds[i] holds the WHERE conjuncts referencing only FROM
	// entry i.
	LocalPreds [][]BoolExpr
	// JoinConds holds the conjuncts referencing two or more FROM entries.
	JoinConds []BoolExpr
	// ConstPreds holds conjuncts referencing no attributes at all.
	ConstPreds []BoolExpr
	// JoinAttrs[i] lists, sorted, the attribute names of FROM entry i
	// referenced by any join condition (the join-attribute tuple shape).
	JoinAttrs [][]string
	// SelectAttrs[i] lists, sorted, the attribute names of FROM entry i
	// referenced by the SELECT list.
	SelectAttrs [][]string
	// ShippedAttrs[i] is the union of JoinAttrs[i] and SelectAttrs[i]:
	// what a complete tuple restricted to query needs contains.
	ShippedAttrs [][]string
}

// Analyze splits the query per the protocol's needs. The query must be
// bound (references resolved), which Parse guarantees.
func Analyze(q *Query) (*Analysis, error) {
	n := len(q.From)
	if n == 0 {
		return nil, fmt.Errorf("query: FROM clause is empty")
	}
	// Standard SQL: in a grouped query every non-aggregate SELECT item
	// must be one of the grouping expressions (otherwise its value within
	// a group would depend on the execution strategy).
	if len(q.GroupBy) > 0 {
		grouped := make(map[string]bool, len(q.GroupBy))
		for _, g := range q.GroupBy {
			grouped[g.String()] = true
		}
		for _, item := range q.Select {
			if item.Agg == AggNone && !grouped[item.Expr.String()] {
				return nil, fmt.Errorf("query: non-aggregate SELECT item %q must appear in GROUP BY", item.Expr.String())
			}
		}
	}
	a := &Analysis{
		Query:       q,
		LocalPreds:  make([][]BoolExpr, n),
		JoinAttrs:   make([][]string, n),
		SelectAttrs: make([][]string, n),
	}
	joinSets := make([]map[string]bool, n)
	selSets := make([]map[string]bool, n)
	for i := range joinSets {
		joinSets[i] = make(map[string]bool)
		selSets[i] = make(map[string]bool)
	}
	for _, conj := range Conjuncts(q.Where) {
		rels := referencedRels(conj)
		switch len(rels) {
		case 0:
			a.ConstPreds = append(a.ConstPreds, conj)
		case 1:
			a.LocalPreds[rels[0]] = append(a.LocalPreds[rels[0]], conj)
		default:
			a.JoinConds = append(a.JoinConds, conj)
			conj.VisitNums(func(e NumExpr) {
				if at, ok := e.(Attr); ok {
					joinSets[at.Ref.Rel][at.Ref.Name] = true
				}
			})
		}
	}
	collect := func(e NumExpr) {
		e.Visit(func(sub NumExpr) {
			if at, ok := sub.(Attr); ok {
				selSets[at.Ref.Rel][at.Ref.Name] = true
			}
		})
	}
	for _, item := range q.Select {
		collect(item.Expr)
	}
	// Grouping expressions are evaluated at the base station on complete
	// tuples, so their attributes ship like SELECT attributes.
	for _, g := range q.GroupBy {
		collect(g)
	}
	for i := 0; i < n; i++ {
		a.JoinAttrs[i] = sortedKeys(joinSets[i])
		a.SelectAttrs[i] = sortedKeys(selSets[i])
		union := make(map[string]bool)
		for k := range joinSets[i] {
			union[k] = true
		}
		for k := range selSets[i] {
			union[k] = true
		}
		a.ShippedAttrs = append(a.ShippedAttrs, sortedKeys(union))
	}
	return a, nil
}

// Conjuncts flattens nested ANDs into a list; a nil predicate yields nil.
func Conjuncts(e BoolExpr) []BoolExpr {
	if e == nil {
		return nil
	}
	if and, ok := e.(And); ok {
		return append(Conjuncts(and.L), Conjuncts(and.R)...)
	}
	return []BoolExpr{e}
}

// AndAll rebuilds a conjunction from a list; nil for an empty list.
func AndAll(conjs []BoolExpr) BoolExpr {
	var out BoolExpr
	for _, c := range conjs {
		if out == nil {
			out = c
		} else {
			out = And{out, c}
		}
	}
	return out
}

func referencedRels(e BoolExpr) []int {
	set := make(map[int]bool)
	e.VisitNums(func(n NumExpr) {
		if at, ok := n.(Attr); ok {
			set[at.Ref.Rel] = true
		}
	})
	out := make([]int, 0, len(set))
	for r := range set {
		out = append(out, r)
	}
	sort.Ints(out)
	return out
}

func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// LocalPredicate returns the conjunction of the local predicates of FROM
// entry i (nil when there are none).
func (a *Analysis) LocalPredicate(i int) BoolExpr { return AndAll(a.LocalPreds[i]) }

// TupleEnv binds one tuple per FROM entry for exact evaluation. Values
// are looked up by (rel index, attribute name).
type TupleEnv struct {
	// Lookup returns the value of attribute name of FROM entry rel.
	Lookup func(rel int, name string) float64
}

// Value implements Env.
func (t TupleEnv) Value(ref AttrRef) float64 { return t.Lookup(ref.Rel, ref.Name) }

// CellEnv binds one interval per (rel, attribute) for tri-state
// evaluation of quantized join-attribute tuples.
type CellEnv struct {
	// Lookup returns the cell interval of attribute name of FROM entry
	// rel.
	Lookup func(rel int, name string) Interval
}

// Range implements BoundsEnv.
func (c CellEnv) Range(ref AttrRef) Interval { return c.Lookup(ref.Rel, ref.Name) }

// SingleEnv evaluates expressions over a single relation's tuple; local
// predicates use it on the node.
type SingleEnv struct {
	// Rel is the FROM index this tuple instantiates.
	Rel int
	// Lookup returns the value of an attribute of this tuple.
	Lookup func(name string) float64
}

// Value implements Env. Referencing another FROM entry panics: local
// predicates by construction reference only Rel.
func (s SingleEnv) Value(ref AttrRef) float64 {
	if ref.Rel != s.Rel {
		panic(fmt.Sprintf("query: local predicate referenced relation %d, bound %d", ref.Rel, s.Rel))
	}
	return s.Lookup(ref.Name)
}
