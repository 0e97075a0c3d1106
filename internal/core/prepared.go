package core

import (
	"sensjoin/internal/query"
	"sensjoin/internal/relation"
)

// Prepared-query support: the analysis and compilation work of a query
// — parse, star expansion, Analyze, the join-kernel's expression
// compilation and shape classification, the plan shape (grid, quadtree
// codec, local predicates, tuple sizes) — depends only on the query text
// and the catalog, not on the snapshot being joined. A Prepared hoists
// all of it out of the per-execution path so a serving layer can pay it
// once per distinct query shape and reuse it across every execution and
// every concurrent session (all cached state is immutable after
// Prepare).

// kernelSlot binds an attribute name of one FROM entry to its dense
// slot in the kernel's value vector.
type kernelSlot struct {
	name string
	slot int
}

// kernelProg is the compiled, execution-independent part of the join
// kernel: the slot layout, the compiled condition/SELECT/GROUP BY
// closures and the classified join shape. It is immutable after
// compileKernel and safe to share across concurrent executions — the
// closures are pure functions of the slot vector.
type kernelProg struct {
	// slotsOf[level] lists the referenced attributes of FROM entry
	// `level` with their assigned global slots.
	slotsOf [][]kernelSlot
	// nslots is the total slot count (the kernel's vector length).
	nslots int
	// compiledConds aligns with Analysis.JoinConds.
	compiledConds []query.CompiledBool
	// condRels[i] lists the FROM entries condition i references.
	condRels [][]int
	selects  []query.CompiledNum
	groupBy  []query.CompiledNum
	// shape classifies the join conditions for access-path planning.
	shape query.JoinShape
}

// compileKernel lowers the query's expressions once, assigning each
// distinct (rel, attr) reference a dense slot; enumeration then reads
// float slots instead of paying a string-map lookup per reference per
// tuple combination. Pulled out of joinKernel so prepared queries pay
// it once instead of per execution.
func compileKernel(q *query.Query, a *query.Analysis) *kernelProg {
	n := len(q.From)
	p := &kernelProg{slotsOf: make([][]kernelSlot, n)}
	resolve := func(ref query.AttrRef) int {
		for _, s := range p.slotsOf[ref.Rel] {
			if s.name == ref.Name {
				return s.slot
			}
		}
		p.slotsOf[ref.Rel] = append(p.slotsOf[ref.Rel], kernelSlot{ref.Name, p.nslots})
		p.nslots++
		return p.nslots - 1
	}
	conds := a.JoinConds
	p.compiledConds = make([]query.CompiledBool, len(conds))
	p.condRels = make([][]int, len(conds))
	for i, c := range conds {
		p.compiledConds[i] = query.CompileBool(c, resolve)
		seen := make(map[int]bool)
		c.VisitNums(func(e query.NumExpr) {
			if at, ok := e.(query.Attr); ok && !seen[at.Ref.Rel] {
				seen[at.Ref.Rel] = true
				p.condRels[i] = append(p.condRels[i], at.Ref.Rel)
			}
		})
	}
	p.selects = make([]query.CompiledNum, len(q.Select))
	for i, it := range q.Select {
		p.selects[i] = query.CompileNum(it.Expr, resolve)
	}
	p.groupBy = make([]query.CompiledNum, len(q.GroupBy))
	for i, e := range q.GroupBy {
		p.groupBy[i] = query.CompileNum(e, resolve)
	}
	p.shape = query.ShapeOf(conds)
	return p
}

// Prepared is a fully analyzed and compiled query, bound to a catalog.
// It is immutable and safe for concurrent use by any number of
// executions. It is bound to the catalog's schemas as they were at
// Prepare: the plan shape quantizes each join attribute by the schema
// that defined it then, so a relation added to the catalog afterwards
// needs a new Prepare.
type Prepared struct {
	src         string
	fingerprint string
	query       *query.Query
	analysis    *query.Analysis
	prog        *kernelProg
	shape       *planShape
}

// Prepare parses, binds and compiles src against cat.
func Prepare(cat relation.Catalog, src string) (*Prepared, error) {
	q, err := query.Parse(src)
	if err != nil {
		return nil, err
	}
	for _, r := range q.From {
		if _, err := cat.Lookup(r.Relation); err != nil {
			return nil, err
		}
	}
	if err := expandStar(q, cat); err != nil {
		return nil, err
	}
	a, err := query.Analyze(q)
	if err != nil {
		return nil, err
	}
	shape, err := compileShape(q, a, cat)
	if err != nil {
		return nil, err
	}
	return &Prepared{
		src:         src,
		fingerprint: query.Fingerprint(q),
		query:       q,
		analysis:    a,
		prog:        compileKernel(q, a),
		shape:       shape,
	}, nil
}

// Prepare compiles src against this runner's catalog.
func (r *Runner) Prepare(src string) (*Prepared, error) {
	return Prepare(r.Catalog, src)
}

// Fingerprint returns the canonical cache key (see query.Fingerprint):
// two prepared queries with equal fingerprints compute identical result
// tables on the same snapshot.
func (p *Prepared) Fingerprint() string { return p.fingerprint }

// Mode reports whether the query is one-shot or periodic.
func (p *Prepared) Mode() query.Mode { return p.query.Mode }

// Period returns the SAMPLE PERIOD in seconds (0 for one-shot queries).
func (p *Prepared) Period() float64 { return p.query.Period }

// Relations returns the FROM-entry count.
func (p *Prepared) Relations() int { return len(p.query.From) }

// Shareable reports whether the query is eligible for shared (grouped)
// execution via QueryGroup: a join with at least one join attribute.
func (p *Prepared) Shareable() bool {
	if len(p.query.From) < 2 {
		return false
	}
	for _, attrs := range p.analysis.JoinAttrs {
		if len(attrs) > 0 {
			return true
		}
	}
	return false
}
