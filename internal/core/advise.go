package core

import (
	"sensjoin/internal/costmodel"
	"sensjoin/internal/quadtree"
	"sensjoin/internal/topology"
	"sensjoin/internal/zorder"
)

// Advice is the cost model's method recommendation for a concrete query
// on a concrete deployment (paper §IV-E, "Join Locations", based on the
// theoretical analysis of [20]).
type Advice struct {
	// Use names the recommended method ("sens-join" or "external-join").
	Use string
	// PredictedExternal and PredictedSENS are the model's packet
	// estimates.
	PredictedExternal float64
	PredictedSENS     float64
	// ExpectedFraction is the snapshot's true contributing fraction the
	// prediction used.
	ExpectedFraction float64
	// BreakEvenFraction estimates where the methods cost the same.
	BreakEvenFraction float64
}

// Advise predicts, without transmitting anything, whether SENS-Join or
// the external join is cheaper for the query on the current snapshot.
// It feeds the routing tree's shape and the measured snapshot statistics
// (tuple sizes, actual filter size, actual contributing fraction) into
// the analytical model.
func Advise(x *Exec) (*Advice, error) {
	p := buildPlan(x)
	defer p.release()
	member := make([]bool, x.Dep.N())
	tupleBytes := 0
	for id, nd := range p.nodes {
		if nd.flags != 0 {
			member[id] = true
			if nd.tupleBytes > tupleBytes {
				tupleBytes = nd.tupleBytes
			}
		}
	}
	parent := make([]int, x.Dep.N())
	for i, pa := range x.Tree.Parent {
		parent[i] = int(pa)
	}
	tree := costmodel.SubtreeMembersOf(parent, member)

	params := costmodel.Params{
		Members:       p.members,
		TupleBytes:    tupleBytes,
		JoinAttrBytes: p.rawTupleBytes,
		QuadFactor:    0.6,
		Payload:       x.Net.Radio.Payload(),
		Dmax:          30,
	}
	if p.grid != nil {
		// Ground the model in the snapshot: actual quadtree compression,
		// actual filter size, actual contributing fraction.
		var keys []zorder.Key
		for _, nd := range p.nodes {
			if nd.flags != 0 {
				keys = append(keys, nd.key)
			}
		}
		keys = quadtree.NormalizeKeys(keys)
		if p.members > 0 && p.rawTupleBytes > 0 {
			params.QuadFactor = float64(p.codec.SizeBytes(keys)) /
				float64(p.members*p.rawTupleBytes)
		}
		filter := computeFilter(p, keys)
		params.FilterBytes = p.codec.SizeBytes(filter)
		truth, _ := exactJoinContribution(x, p)
		if p.members > 0 {
			params.Fraction = float64(truth) / float64(p.members)
		}
	}

	rec := costmodel.Advise(tree, params)
	a := &Advice{
		PredictedExternal: rec.ExternalPackets,
		PredictedSENS:     rec.SENSPackets,
		ExpectedFraction:  params.Fraction,
		BreakEvenFraction: rec.BreakEvenFraction,
		Use:               "external-join",
	}
	if rec.UseSENS {
		a.Use = "sens-join"
	}
	return a, nil
}

// exactJoinContribution counts contributing nodes (the oracle's
// fraction, used to ground the model).
func exactJoinContribution(x *Exec, p *plan) (int, error) {
	var tuples []finalTuple
	for id, nd := range p.nodes {
		if nd.flags != 0 {
			tuples = append(tuples, p.tuple(topology.NodeID(id)))
		}
	}
	return len(joinContributors(x, tuples)), nil
}
