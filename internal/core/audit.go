package core

import (
	"sensjoin/internal/routing"
	"sensjoin/internal/stats"
	"sensjoin/internal/tabledigest"
	"sensjoin/internal/topology"
	"sensjoin/internal/trace"
)

// auditSegment brackets one protocol round — a single query's execution
// or one cluster of a shared round — under the journal. close audits
// what was recorded since openAudit: conservation (every delivery matches
// a transmission), reconciliation (journal totals equal the stats
// collector's, bit-exact), slot-schedule ordering (no parent transmits
// before its children in the collection phases), reliable-transport
// bookkeeping, churn safety when the round runs WithChurn, and — for
// filter-based rounds on loss-free runs — filter soundness (no suppressed
// tuple contributes to the ground truth).
type auditSegment struct {
	r      *Runner
	mark   int
	before stats.Snapshot
	// tree is captured before the round: mid-round repair swaps r.Tree,
	// but the slot-scheduled phases ran on the tree the round started
	// with (recovery traffic is not slot-audited).
	tree *routing.Tree
	// truths are the round's pre-round oracles of the churn-safety pass,
	// one per execution, set when the round runs WithChurn.
	truths []*Result
}

// openAudit starts a segment in the execution's recorder when the call
// asks for one (Audited); nil otherwise.
func (r *Runner) openAudit(o runOptions) *auditSegment {
	if !o.audit {
		return nil
	}
	return &auditSegment{r: r, mark: r.rec.Mark(), before: r.Stats.Snapshot(), tree: r.Tree}
}

// close runs the audit passes over the segment of a round of method m
// whose executions are execs, results their results in order. The slot
// order covers m's leaves-first collection phases (dissemination floods
// downstream and is not slot-ordered). When m disseminates a filter, it
// may only suppress a key none of execs wants, so suppress decisions are
// checked against the union of their ground-truth contributors. Each
// result's churn verdict is drawn against its own truth. The runner's
// own recorder is emptied afterwards, so audited soaks stay bounded.
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
	j := r.rec.JournalSince(a.mark)
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
	if r.rec == r.auditRec {
		r.rec.Truncate(0)
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
