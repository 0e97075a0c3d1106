package core

import (
	"fmt"
	"sort"
	"sync"

	"sensjoin/internal/quadtree"
	"sensjoin/internal/query"
	"sensjoin/internal/relation"
	"sensjoin/internal/topology"
	"sensjoin/internal/zorder"
)

// nodeData is the per-node view of one execution: which aliases the node
// contributes to, its quantized join-attribute key, and the wire size of
// its complete (shipped) tuple. Sensor values are not stored per node:
// they are read by node id from the execution's snapshot columns
// (Exec.column).
type nodeData struct {
	// flags has bit zorder.FlagFor(i, nAliases) set when the node
	// belongs to FROM entry i and passes its local predicates. Zero
	// means the node contributes no tuple (the base station, dead nodes,
	// non-members).
	flags uint64
	// key is the quantized join-attribute tuple (valid when flags != 0
	// and the query has join attributes).
	key zorder.Key
	// tupleBytes is the wire size of the node's complete tuple
	// restricted to the query's shipped attributes.
	tupleBytes int
}

// plan is the global, per-execution view shared by the join engines.
type plan struct {
	x    *Exec
	grid *zorder.Grid
	// dims lists the join-attribute dimension names in grid order.
	dims []string
	// dimIndex maps a dimension name to its grid index.
	dimIndex map[string]int
	// nodes[id] is the zero nodeData (flags == 0) for the base station
	// and for nodes that belong to no relation.
	nodes []nodeData
	// shippedByFlags caches the sorted attribute union per flag mask.
	shippedByFlags map[uint64][]string
	// members counts nodes with non-zero flags.
	members int
	// rawTupleBytes is the wire size of one raw (unquantized)
	// join-attribute tuple: 2 bytes per dimension.
	rawTupleBytes int
	// qt is the lazily built quadtree codec for grid.
	qt *quadtree.Codec
}

// planFiller derives nodeData for a range of nodes. Everything it reads
// is shared and read-only (snapshot columns, compiled predicates, the
// pre-warmed shipped cache); vals and coords are its own scratch, so
// disjoint id ranges can be filled by one filler each in parallel.
type planFiller struct {
	p *plan
	// preds[i] is FROM entry i's compiled local predicate (nil: none)
	// over predCols, the columns its slots resolve to.
	preds    []query.CompiledBool
	predCols [][]float64
	dimCols  [][]float64
	vals     []float64
	coords   []uint32
}

// fork returns a filler sharing f's read-only inputs with scratch of its
// own.
func (f *planFiller) fork() *planFiller {
	c := *f
	c.vals = make([]float64, len(f.vals))
	c.coords = make([]uint32, len(f.coords))
	return &c
}

// fill derives nodes [lo, hi) and returns how many are members.
func (f *planFiller) fill(lo, hi int) int {
	p, x := f.p, f.p.x
	n := len(x.Query.From)
	members := 0
	var lastFlags uint64
	lastBytes := 0
	for id := lo; id < hi; id++ {
		nid := topology.NodeID(id)
		if x.Net != nil && !x.Net.Alive(nid) {
			continue // a dead node contributes no tuple
		}
		var flags uint64
		loaded := false
		for i, ref := range x.Query.From {
			if x.Member != nil && !x.Member(nid, ref.Relation) {
				continue
			}
			if pred := f.preds[i]; pred != nil {
				if !loaded {
					for k, col := range f.predCols {
						f.vals[k] = col[id]
					}
					loaded = true
				}
				if !pred(f.vals) {
					continue
				}
			}
			flags |= zorder.FlagFor(i, n)
		}
		if flags == 0 {
			continue
		}
		nd := &p.nodes[id]
		nd.flags = flags
		if p.grid != nil {
			for j, d := range p.grid.Dims {
				f.coords[j] = d.Cell(f.dimCols[j][id])
			}
			nd.key = p.grid.Interleave(flags, f.coords)
		}
		if flags != lastFlags {
			lastFlags, lastBytes = flags, relation.TupleBytes(len(p.shipped(flags)))
		}
		nd.tupleBytes = lastBytes
		members++
	}
	return members
}

// buildPlan derives every node's flags, key and tuple size from the
// execution's snapshot (each sensor read exactly once, §IV-D — and, the
// snapshot being shared, once for every execution at this instant). It
// allocates per plan, never per node.
func buildPlan(x *Exec) (*plan, error) {
	n := len(x.Query.From)
	a := x.Analysis
	for _, ref := range x.Query.From {
		if _, err := x.Catalog.Lookup(ref.Relation); err != nil {
			return nil, err
		}
	}

	// Join-attribute dimensions: the union of join-attribute names over
	// all FROM entries, quantized per the first schema defining them.
	var dims []zorder.Dim
	dimIndex := make(map[string]int)
	var dimNames []string
	for i := range x.Query.From {
		for _, name := range a.JoinAttrs[i] {
			if _, seen := dimIndex[name]; !seen {
				dimIndex[name] = -1 // placed once the names are sorted
				dimNames = append(dimNames, name)
			}
		}
	}
	sort.Strings(dimNames)
	for _, name := range dimNames {
		def, err := findAttrDef(x, name)
		if err != nil {
			return nil, err
		}
		d, err := zorder.NewDim(name, def.Min, def.Max, def.Res)
		if err != nil {
			return nil, err
		}
		dimIndex[name] = len(dims)
		dims = append(dims, d)
	}
	var grid *zorder.Grid
	if len(dims) > 0 {
		var err error
		grid, err = zorder.NewGrid(n, dims)
		if err != nil {
			return nil, err
		}
	}

	total := x.Dep.N()
	p := &plan{
		x:              x,
		grid:           grid,
		dims:           dimNames,
		dimIndex:       dimIndex,
		nodes:          make([]nodeData, total),
		shippedByFlags: make(map[uint64][]string),
		rawTupleBytes:  relation.TupleBytes(len(dimNames)),
	}
	if grid != nil {
		// Build the quadtree codec up front: under the sharded simulator
		// region workers reach it concurrently, so the lazy init in
		// codec() must never fire during a run.
		p.codec()
	}

	// Local predicates compile to closures over one slot per attribute
	// name (a local predicate only references its own alias, so the name
	// identifies the column).
	var predNames []string
	resolve := func(ref query.AttrRef) int {
		for k, name := range predNames {
			if name == ref.Name {
				return k
			}
		}
		predNames = append(predNames, ref.Name)
		return len(predNames) - 1
	}
	f := &planFiller{p: p, preds: make([]query.CompiledBool, n)}
	for i := range x.Query.From {
		if pred := a.LocalPredicate(i); pred != nil {
			f.preds[i] = query.CompileBool(pred, resolve)
		}
	}

	workers := x.Workers
	// Membership callbacks are arbitrary user code with no thread-safety
	// contract, so they force the sequential path.
	parallel := workers > 1 && total >= 4096 && n <= 8 && x.Member == nil
	if parallel {
		// A cold snapshot of a large deployment is filled by the same
		// workers, and the shipped cache is pre-warmed for every possible
		// mask so that they only read it.
		names := append(append([]string(nil), predNames...), dimNames...)
		x.snapshot().Fill(workers, names...)
		for mask := uint64(1); mask < uint64(1)<<n; mask++ {
			p.shipped(mask)
		}
	}
	// Columns are resolved once per plan, not per node or per read.
	for _, name := range predNames {
		f.predCols = append(f.predCols, x.column(name))
	}
	for _, name := range dimNames {
		f.dimCols = append(f.dimCols, x.column(name))
	}
	f.vals = make([]float64, len(predNames))
	f.coords = make([]uint32, len(dimNames))

	if !parallel {
		p.members = f.fill(1, total)
		return p, nil
	}
	chunk := (total - 1 + workers - 1) / workers
	counts := make([]int, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo := 1 + w*chunk
		hi := lo + chunk
		if lo > total {
			lo = total
		}
		if hi > total {
			hi = total
		}
		wg.Add(1)
		go func(w, lo, hi int, f *planFiller) {
			defer wg.Done()
			counts[w] = f.fill(lo, hi)
		}(w, lo, hi, f.fork())
	}
	wg.Wait()
	for _, c := range counts {
		p.members += c
	}
	return p, nil
}

// findAttrDef locates the quantization of an attribute among the query's
// relations.
func findAttrDef(x *Exec, name string) (relation.AttrDef, error) {
	for _, ref := range x.Query.From {
		s, err := x.Catalog.Lookup(ref.Relation)
		if err != nil {
			continue
		}
		if def, err := s.Attr(name); err == nil {
			return def, nil
		}
	}
	return relation.AttrDef{}, fmt.Errorf("core: no relation of the query defines attribute %q", name)
}

// shipped returns the sorted union of shipped attributes over the aliases
// set in flags.
func (p *plan) shipped(flags uint64) []string {
	if s, ok := p.shippedByFlags[flags]; ok {
		return s
	}
	n := len(p.x.Query.From)
	set := make(map[string]bool)
	for i := 0; i < n; i++ {
		if flags&zorder.FlagFor(i, n) != 0 {
			for _, name := range p.x.Analysis.ShippedAttrs[i] {
				set[name] = true
			}
		}
	}
	out := make([]string, 0, len(set))
	for name := range set {
		out = append(out, name)
	}
	sort.Strings(out)
	p.shippedByFlags[flags] = out
	return out
}

// tuple returns the complete (shipped) tuple of a member node for the
// final result computation.
func (p *plan) tuple(id topology.NodeID) finalTuple {
	nd := &p.nodes[id]
	return finalTuple{node: id, flags: nd.flags, bytes: nd.tupleBytes}
}

// keyOf returns the join-attribute key of a complete tuple (the
// projection a proxy performs in Fig. 2, line 22): the key its node was
// assigned when the plan was built.
func (p *plan) keyOf(t finalTuple) zorder.Key { return p.nodes[t.node].key }

// finalTuple is a complete tuple in flight to the base station. Only
// bytes is wire-visible; node stands for the tuple's content, which the
// base station reads from the snapshot columns by node id.
type finalTuple struct {
	node  topology.NodeID
	flags uint64
	bytes int
}

// expandStar rewrites SELECT * into one item per attribute per FROM
// entry, qualified by alias, in schema order.
func expandStar(q *query.Query, cat relation.Catalog) error {
	if !q.Star {
		return nil
	}
	var items []query.SelectItem
	for i, ref := range q.From {
		s, err := cat.Lookup(ref.Relation)
		if err != nil {
			return err
		}
		for _, attr := range s.Attrs {
			items = append(items, query.SelectItem{
				Expr: query.Attr{Ref: query.AttrRef{Alias: ref.Alias, Name: attr.Name, Rel: i}},
			})
		}
	}
	q.Star = false
	q.Select = items
	return nil
}

// forExec returns a shallow copy of the plan bound to another execution
// context. Shared-execution cluster members share the node data (the
// compatibility key guarantees it is identical); only the query-side
// fields — analysis, join conditions, SELECT list — differ per member.
func (p *plan) forExec(x *Exec) *plan {
	c := *p
	c.x = x
	return &c
}
