package core

import (
	"fmt"
	"math/bits"
	"slices"
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

// planShape is the part of a plan the prepared query and its catalog fix:
// the grid, the quadtree codec, the compiled local predicates and the
// tuple sizes. Prepare compiles it once (compileShape); it is read-only
// afterwards and shared by every execution of the query, concurrent ones
// included.
type planShape struct {
	// dims lists the join-attribute names, sorted: the grid's order.
	dims []string
	// grid and codec are nil when the query has no join attributes.
	grid  *zorder.Grid
	codec *quadtree.Codec
	// preds[i] is FROM entry i's compiled local predicate (nil: none)
	// over slot k = predNames[k].
	preds     []query.CompiledBool
	predNames []string
	// shipped[i*words : (i+1)*words] is FROM entry i's bitset over the
	// query's shipped attribute names.
	shipped []uint64
	words   int
	// rawTupleBytes is the wire size of one raw (unquantized)
	// join-attribute tuple: 2 bytes per dimension.
	rawTupleBytes int
}

// compileShape builds the plan shape of an analysed query against cat.
// The grid's errors (more than 8 relations, a key wider than 64 bits)
// surface here, at Prepare.
func compileShape(q *query.Query, a *query.Analysis, cat relation.Catalog) (*planShape, error) {
	n := len(q.From)
	s := &planShape{preds: make([]query.CompiledBool, n)}

	// Join-attribute dimensions: the union of join-attribute names over
	// all FROM entries, quantized per the first schema defining them.
	for i := range q.From {
		for _, name := range a.JoinAttrs[i] {
			if !slices.Contains(s.dims, name) {
				s.dims = append(s.dims, name)
			}
		}
	}
	sort.Strings(s.dims)
	s.rawTupleBytes = relation.TupleBytes(len(s.dims))
	if len(s.dims) > 0 {
		dims := make([]zorder.Dim, len(s.dims))
		for j, name := range s.dims {
			def, err := findAttrDef(q, cat, name)
			if err != nil {
				return nil, err
			}
			if dims[j], err = zorder.NewDim(name, def.Min, def.Max, def.Res); err != nil {
				return nil, err
			}
		}
		var err error
		if s.grid, err = zorder.NewGrid(n, dims); err != nil {
			return nil, err
		}
		if s.codec, err = quadtree.NewCodec(s.grid.Levels()); err != nil {
			return nil, fmt.Errorf("core: grid produced an invalid level schedule: %v", err)
		}
	}

	// Local predicates compile to closures over one slot per attribute
	// name (a local predicate only references its own alias, so the name
	// identifies the column).
	resolve := func(ref query.AttrRef) int {
		if k := slices.Index(s.predNames, ref.Name); k >= 0 {
			return k
		}
		s.predNames = append(s.predNames, ref.Name)
		return len(s.predNames) - 1
	}
	for i := range q.From {
		if pred := a.LocalPredicate(i); pred != nil {
			s.preds[i] = query.CompileBool(pred, resolve)
		}
	}

	var names []string
	for i := range q.From {
		for _, name := range a.ShippedAttrs[i] {
			if !slices.Contains(names, name) {
				names = append(names, name)
			}
		}
	}
	s.words = (len(names) + 63) / 64
	s.shipped = make([]uint64, n*s.words)
	for i := range q.From {
		for _, name := range a.ShippedAttrs[i] {
			k := slices.Index(names, name)
			s.shipped[i*s.words+k/64] |= 1 << (k % 64)
		}
	}
	return s, nil
}

// tupleBytes is the wire size of a tuple of the aliases set in flags:
// the union of their shipped attributes.
func (s *planShape) tupleBytes(flags uint64) int {
	n := len(s.preds)
	count := 0
	for w := 0; w < s.words; w++ {
		var union uint64
		for i := 0; i < n; i++ {
			if flags&zorder.FlagFor(i, n) != 0 {
				union |= s.shipped[i*s.words+w]
			}
		}
		count += bits.OnesCount64(union)
	}
	return relation.TupleBytes(count)
}

// dimOf returns the grid index of join attribute name: a scan, the
// cheapest lookup over a handful of names.
func (s *planShape) dimOf(name string) (int, bool) {
	j := slices.Index(s.dims, name)
	return j, j >= 0
}

// findAttrDef locates the quantization of an attribute among the query's
// relations.
func findAttrDef(q *query.Query, cat relation.Catalog, name string) (relation.AttrDef, error) {
	for _, ref := range q.From {
		s, err := cat.Lookup(ref.Relation)
		if err != nil {
			continue
		}
		if def, err := s.Attr(name); err == nil {
			return def, nil
		}
	}
	return relation.AttrDef{}, fmt.Errorf("core: no relation of the query defines attribute %q", name)
}

// plan is the global, per-execution view shared by the join engines: the
// prepared query's shape and what every node contributes at the
// execution's instant.
type plan struct {
	*planShape
	x *Exec
	// nodes[id] is the zero nodeData (flags == 0) for the base station
	// and for nodes that belong to no relation. The slab is on loan from
	// the runner until release.
	nodes []nodeData
	// members counts nodes with non-zero flags.
	members int
}

// planFiller derives nodeData for a range of nodes. Everything it reads
// is shared and read-only (snapshot columns, the shape); vals and coords
// are its own scratch, so disjoint id ranges can be filled by one filler
// each in parallel.
type planFiller struct {
	p *plan
	// predCols[k] is the column of the shape's predNames[k]; dimCols[j]
	// that of dims[j].
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
			if pred := p.preds[i]; pred != nil {
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
			lastFlags, lastBytes = flags, p.tupleBytes(flags)
		}
		nd.tupleBytes = lastBytes
		members++
	}
	return members
}

// buildPlan fills every node's flags, key and tuple size from the
// execution's snapshot (each sensor read exactly once, §IV-D — and, the
// snapshot being shared, once for every execution at this instant) into
// the query's shape, which Prepare compiled. The node slab is borrowed
// from the runner: the caller hands it back with release once nothing
// reads the plan, so a warm runner's plan allocates a few small buffers
// and nothing per node.
func buildPlan(x *Exec) *plan {
	total := x.Dep.N()
	s := x.shape
	p := &plan{planShape: s, x: x, nodes: borrow(&x.run().nodes, total)}
	f := &planFiller{
		p:      p,
		vals:   make([]float64, len(s.predNames)),
		coords: make([]uint32, len(s.dims)),
	}

	workers := x.Workers
	// Membership callbacks are arbitrary user code with no thread-safety
	// contract, so they force the sequential path.
	parallel := workers > 1 && total >= 4096 && x.Member == nil
	if parallel {
		// A cold snapshot of a large deployment is filled by the same
		// workers.
		x.snapshot().Fill(workers, s.predNames...)
		x.snapshot().Fill(workers, s.dims...)
	}
	// Columns are resolved once per plan, not per node or per read.
	for _, name := range s.predNames {
		f.predCols = append(f.predCols, x.column(name))
	}
	for _, name := range s.dims {
		f.dimCols = append(f.dimCols, x.column(name))
	}

	if !parallel {
		p.members = f.fill(1, total)
		return p
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
	return p
}

// release hands the node slab back to the runner under giveBack's rule.
// Only the plan buildPlan returned releases, not a forExec copy.
func (p *plan) release() { giveBack(p.x, &p.x.run().nodes, p.nodes) }

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

// heldKeys appends to keys (empty) the sorted key set of tuples and, if
// node id is a member, of its own tuple.
func (p *plan) heldKeys(keys []zorder.Key, tuples []finalTuple, id topology.NodeID) []zorder.Key {
	for _, t := range tuples {
		keys = append(keys, p.keyOf(t))
	}
	if p.nodes[id].flags != 0 {
		keys = append(keys, p.nodes[id].key)
	}
	slices.Sort(keys)
	return slices.Compact(keys)
}

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
