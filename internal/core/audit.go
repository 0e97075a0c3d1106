package core

import (
	"fmt"

	"sensjoin/internal/routing"
	"sensjoin/internal/stats"
	"sensjoin/internal/tabledigest"
	"sensjoin/internal/topology"
	"sensjoin/internal/trace"
)

// EnableTrace attaches a journal recorder to the runner (idempotent):
// radio events flow in through the network tracer and protocol spans
// through Exec.Trace. Returns the recorder for export/audit calls.
// Tracing composes with the sharded engine: the recorder goes
// concurrent (region workers emit spans in parallel) and the network
// buffers radio events per region, flushed at drain; the canonical
// journal order makes the result byte-identical to a classic run.
func (r *Runner) EnableTrace() *trace.Recorder {
	if r.Trace == nil {
		r.Trace = trace.New()
		r.Trace.SetConcurrent(r.Sim.Sharded())
		r.Net.SetTracer(r.Trace.Radio())
	}
	return r.Trace
}

// DisableTrace detaches the runner's recorder and tracer entirely, so a
// pooled runner stops paying journal cost once a sampled query is done.
func (r *Runner) DisableTrace() {
	r.Trace = nil
	r.Net.SetTracer(nil)
}

// auditSegment brackets one protocol round — a single query's execution
// or one cluster of a shared round — under the journal. close audits
// what was recorded since openAudit: conservation (every delivery matches
// a transmission), reconciliation (journal totals equal the stats
// collector's, bit-exact), slot-schedule ordering (no parent transmits
// before its children in the collection phases), reliable-transport
// bookkeeping, churn safety when an injector is attached, and — for
// filter-based rounds on loss-free runs — filter soundness (no suppressed
// tuple contributes to the ground truth).
type auditSegment struct {
	r      *Runner
	rec    *trace.Recorder
	mark   int
	before stats.Snapshot
	// what names the round in the error a strict segment turns its
	// violations into; a lenient one (Audited) returns them.
	what   string
	strict bool
	// tree is captured before the round: mid-round repair swaps r.Tree,
	// but the slot-scheduled phases ran on the tree the round started
	// with (recovery traffic is not slot-audited).
	tree *routing.Tree
	// truths are the round's pre-round oracles of the churn-safety pass,
	// one per execution, set when an injector is attached.
	truths []*Result
}

// openAudit starts a segment when the call (Audited) or the runner
// (AutoAudit) asks for one, enabling tracing on demand; nil otherwise.
func (r *Runner) openAudit(o runOptions, what string) *auditSegment {
	if !o.audit && !r.AutoAudit {
		return nil
	}
	rec := r.EnableTrace()
	return &auditSegment{
		r: r, rec: rec, mark: rec.Mark(), before: r.Stats.Snapshot(),
		what: what, strict: !o.audit, tree: r.Tree,
	}
}

// close runs the audit passes over the segment of a round of method m
// whose executions are execs, results their results in order. The slot
// order covers m's leaves-first collection phases (dissemination floods
// downstream and is not slot-ordered). When m disseminates a filter, it
// may only suppress a key none of execs wants, so suppress decisions are
// checked against the union of their ground-truth contributors. Each
// result's churn verdict is drawn against its own truth. Under AutoAudit
// the segment is truncated afterwards so soaks stay bounded.
func (a *auditSegment) close(m Method, execs []*Exec, results []*Result) ([]trace.Violation, error) {
	r := a.r
	var slotPhases []string
	filtered := false
	for _, p := range m.Phases() {
		switch p {
		case PhaseJACollect, PhaseFinalCollect, PhaseExternal:
			slotPhases = append(slotPhases, p)
		case PhaseFilterDissem:
			filtered = true
		}
	}
	j := a.rec.JournalSince(a.mark)
	violations := trace.Conservation(j)
	violations = append(violations, trace.Reconcile(j, a.before, r.Stats.Snapshot())...)
	violations = append(violations, trace.SlotOrder(j, a.tree, slotPhases)...)
	violations = append(violations, trace.Reliability(j)...)
	if a.truths != nil {
		verdicts := make([]trace.ChurnVerdict, len(results))
		for i, res := range results {
			verdicts[i] = trace.ChurnVerdict{
				Complete:        res.Complete,
				OracleExact:     sameRowSet(a.truths[i].Rows, res.Rows),
				Reason:          res.IncompleteReason,
				MissingSubtrees: len(res.MissingSubtrees),
				Repairs:         res.Repairs,
			}
		}
		violations = append(violations, trace.ChurnSafety(j, verdicts...)...)
	}
	// Filter soundness needs the ground truth to be reachable: a dead
	// member transmits nothing (silently — no drop/lost events), so the
	// filter legitimately misses its keys and suppressing its join
	// partners is correct. Audit only when every node is alive; lossy
	// runs stand down inside FilterSoundness itself.
	if filtered && r.allAlive() {
		contrib := make(map[topology.NodeID]bool)
		for _, x := range execs {
			qc, err := groundTruthContributors(x)
			if err != nil {
				return nil, err
			}
			for _, id := range qc {
				contrib[id] = true
			}
		}
		violations = append(violations, trace.FilterSoundness(j, contrib)...)
	}
	if r.AutoAudit {
		a.rec.Truncate(a.mark)
	}
	if a.strict && len(violations) > 0 {
		return nil, fmt.Errorf("core: %s audit: %d violation(s), first: %s",
			a.what, len(violations), violations[0])
	}
	return violations, nil
}

// sameRowSet reports whether a and b hold the same rows, bit for bit,
// in any order (ORDER BY-less queries return rows in collection order,
// which recovery can permute).
func sameRowSet(a, b []Row) bool {
	return tabledigest.Table[Row]{Rows: a}.Digest() == tabledigest.Table[Row]{Rows: b}.Digest()
}

// allAlive reports whether every node in the deployment is live.
func (r *Runner) allAlive() bool {
	for i := 0; i < r.Net.N(); i++ {
		if !r.Net.Alive(topology.NodeID(i)) {
			return false
		}
	}
	return true
}

// groundTruthContributors computes, network-free, the nodes whose tuple
// appears in the exact query result, ascending — the oracle the filter
// soundness audit checks suppress decisions against. The list is valid
// until the execution's next join.
func groundTruthContributors(x *Exec) ([]topology.NodeID, error) {
	p := buildPlan(x)
	defer p.release()
	var tuples []finalTuple
	for id := 1; id < x.Dep.N(); id++ {
		if p.nodes[id].flags != 0 {
			tuples = append(tuples, p.tuple(topology.NodeID(id)))
		}
	}
	return joinContributors(x, tuples), nil
}
