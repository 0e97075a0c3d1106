package core

import (
	"fmt"
	"strings"

	"sensjoin/internal/quadtree"
	"sensjoin/internal/query"
	"sensjoin/internal/zorder"
)

// Explain renders the execution plan of a query: how the WHERE clause
// splits into local predicates and join conditions, which attributes
// form the join-attribute tuple, how the quantization grid and quadtree
// level schedule look, what the pre-computation will transport, and the
// filter the base station would compute on the current snapshot.
func Explain(x *Exec) (string, error) {
	p := buildPlan(x)
	defer p.release()
	a := x.Analysis
	var b strings.Builder

	fmt.Fprintf(&b, "query: %s\n\n", x.Query.String())
	fmt.Fprintf(&b, "relations (%d):\n", len(x.Query.From))
	for i, ref := range x.Query.From {
		members := 0
		flag := zorder.FlagFor(i, len(x.Query.From))
		for _, nd := range p.nodes {
			if nd.flags&flag != 0 {
				members++
			}
		}
		fmt.Fprintf(&b, "  [%d] %s AS %s — %d member nodes\n", i, ref.Relation, ref.Alias, members)
		if pred := a.LocalPredicate(i); pred != nil {
			fmt.Fprintf(&b, "      local predicate: %s (evaluated on the node)\n", pred.String())
		}
		fmt.Fprintf(&b, "      join attrs: %v   shipped attrs: %v (%d bytes/tuple)\n",
			a.JoinAttrs[i], a.ShippedAttrs[i], 2*len(a.ShippedAttrs[i]))
	}

	fmt.Fprintf(&b, "\njoin conditions (%d):\n", len(a.JoinConds))
	shapes := conjunctShapes(x)
	for i, c := range a.JoinConds {
		fmt.Fprintf(&b, "  %s  [%s]\n", c.String(), shapes[i])
	}
	for _, c := range a.ConstPreds {
		fmt.Fprintf(&b, "  constant: %s\n", c.String())
	}

	if p.grid == nil {
		b.WriteString("\nno join attributes: SENS-Join not applicable (use the external join)\n")
		return b.String(), nil
	}

	fmt.Fprintf(&b, "\nquantization grid (%d bits/key, %d relation-flag bits):\n",
		p.grid.TotalBits, p.grid.FlagBits)
	for _, d := range p.grid.Dims {
		fmt.Fprintf(&b, "  %-6s [%g, %g] step %g -> %d cells, %d bits\n",
			d.Name, d.Min, d.Max, d.Res, d.Size, d.Bits)
	}
	fmt.Fprintf(&b, "  quadtree level schedule: %v\n", p.grid.Levels())

	// Snapshot-dependent estimates.
	var keys []zorder.Key
	for _, nd := range p.nodes {
		if nd.flags != 0 {
			keys = append(keys, nd.key)
		}
	}
	keys = quadtree.NormalizeKeys(keys)
	enc := p.codec.Encode(keys)
	fmt.Fprintf(&b, "\npre-computation on the current snapshot:\n")
	fmt.Fprintf(&b, "  members: %d nodes, %d distinct join-attribute keys\n", p.members, len(keys))
	fmt.Fprintf(&b, "  raw join-attribute tuples: %d bytes; quadtree: %d bytes (%.0f%%)\n",
		p.members*p.rawTupleBytes, enc.ByteLen(),
		100*float64(enc.ByteLen())/float64(maxInt(1, p.members*p.rawTupleBytes)))
	filter := computeFilter(p, keys)
	fmt.Fprintf(&b, "  join filter: %d keys (%.1f%% of distinct), %d bytes encoded\n",
		len(filter), 100*float64(len(filter))/float64(maxInt(1, len(keys))),
		p.codec.SizeBytes(filter))
	return b.String(), nil
}

// conjunctShapes labels each join conjunct with the class the planner
// gives it (query.ShapeOf): an equality key, a difference or sum band
// with its closed interval, or a residual checked on every candidate.
func conjunctShapes(x *Exec) []string {
	labels := make([]string, len(x.Analysis.JoinConds))
	for i := range labels {
		labels[i] = "residual"
	}
	attr := func(r query.AttrRef) string { return x.Query.From[r.Rel].Alias + "." + r.Name }
	for _, eq := range x.prog.shape.Eq {
		labels[eq.Cond] = "eq"
	}
	for _, bd := range x.prog.shape.Band {
		kind, op := "band", "-"
		if bd.Sum {
			kind, op = "sum band", "+"
		}
		labels[bd.Cond] = fmt.Sprintf("%s %s %s %s ∈ [%g, %g]", kind, attr(bd.L), op, attr(bd.R), bd.Lo, bd.Hi)
	}
	return labels
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
