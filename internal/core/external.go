package core

import (
	"sensjoin/internal/topology"
	"sensjoin/internal/trace"
)

// External is the state-of-the-art general-purpose baseline (paper §I,
// §VI): every member node ships its complete tuple (projected onto the
// attributes the query needs, selections applied locally) to the base
// station along the routing tree; forwarding nodes aggregate tuples into
// as few packets as possible; the base station joins.
type External struct{}

// Name implements Method.
func (External) Name() string { return "external-join" }

// Phases implements Method.
func (External) Phases() []string { return ExternalPhases }

// Run implements Method.
func (External) Run(x *Exec) (*Result, error) {
	p := buildPlan(x)
	defer p.release()
	start := x.Sim.Now()
	// One TAG-style collection wave gathers every member tuple at the
	// base station (nodes at depth d transmit in slot maxDepth-d, so
	// children always precede parents); the join happens there.
	x.span(trace.KindPhaseStart, topology.BaseStation, -1, PhaseExternal, 0)
	tuples := collectWave(x, p, x.Tree, PhaseExternal, nil)
	x.span(trace.KindPhaseEnd, topology.BaseStation, -1, PhaseExternal, 0)
	out := exactJoin(x, tuples)
	res := &Result{
		Columns:           columnsOf(x.Query),
		Rows:              out.rows,
		ContributingNodes: len(out.contrib),
		MemberNodes:       p.members,
		Complete:          len(tuples) == p.members,
		ResponseTime:      x.Sim.Now() - start,
		block:             out.block,
	}
	// The external join needs every member tuple, so scoped recovery
	// targets members rather than contributors.
	if x.Net.Reliable() {
		have := tupleIndex(tuples)
		rounds, missing := runScopedRecovery(x, p, memberSet(p), have, nil, start)
		finishReliable(x, x, p, res, have, missing, rounds, start)
	} else if !res.Complete {
		annotateIncomplete(x, missingFrom(memberSet(p), tupleIndex(tuples)), res)
	}
	return res, nil
}

// collectionBound is the worst-case single transmission of a collection
// wave in bytes: all member tuples in one message.
func collectionBound(p *plan) int {
	maxTuple := 0
	for _, nd := range p.nodes {
		if nd.tupleBytes > maxTuple { // 0 for non-members
			maxTuple = nd.tupleBytes
		}
	}
	return p.members*maxTuple + 64
}

// collectionSlot returns a slot duration covering collectionBound.
func collectionSlot(x *Exec, p *plan) float64 { return x.Net.SlotFor(collectionBound(p)) }
