package core

import (
	"sort"

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

// AuditRun executes a query like Run and then audits the execution's
// journal segment: conservation (every delivery matches a transmission),
// reconciliation (journal totals equal the stats collector's, bit-exact),
// slot-schedule ordering (no parent transmits before its children in the
// collection phases), and — for filter-based methods on loss-free runs —
// filter soundness (no suppressed tuple contributes to the ground truth).
// Tracing is enabled on demand. With AutoAudit set, the audited journal
// segment is truncated afterwards so long soaks stay bounded.
func (r *Runner) AuditRun(src string, m Method, t float64) (*Result, []trace.Violation, error) {
	rec := r.EnableTrace()
	mark := rec.Mark()
	before := r.Stats.Snapshot()

	x, err := r.ExecSQL(src, t)
	if err != nil {
		return nil, nil, err
	}
	// The churn-safety oracle must be computed before the run: churn may
	// kill members mid-round, and GroundTruth reflects aliveness at call
	// time — the contract is "exact w.r.t. the snapshot the round
	// started from". The tree is captured pre-run for the same reason:
	// mid-round repair swaps r.Tree, but the slot-scheduled phases ran
	// on the tree the round started with (recovery traffic is not
	// slot-audited).
	var truth *Result
	tree := r.Tree
	if r.churn != nil {
		if truth, err = GroundTruth(x); err != nil {
			return nil, nil, err
		}
	}
	res, err := m.Run(x)
	if err != nil {
		return nil, nil, err
	}

	after := r.Stats.Snapshot()
	j := rec.JournalSince(mark)

	var violations []trace.Violation
	violations = append(violations, trace.Conservation(j)...)
	violations = append(violations, trace.Reconcile(j, before, after)...)
	violations = append(violations, trace.SlotOrder(j, tree, auditPhases(m))...)
	violations = append(violations, trace.Reliability(j)...)
	if r.churn != nil {
		violations = append(violations, trace.ChurnSafety(j, trace.ChurnVerdict{
			Complete:        res.Complete,
			OracleExact:     sameRowSet(truth.Rows, res.Rows),
			Reason:          res.IncompleteReason,
			MissingSubtrees: len(res.MissingSubtrees),
			Repairs:         res.Repairs,
		})...)
	}
	// Filter soundness needs the ground truth to be reachable: a dead
	// member transmits nothing (silently — no drop/lost events), so the
	// filter legitimately misses its keys and suppressing its join
	// partners is correct. Audit only when every node is alive; lossy
	// runs stand down inside FilterSoundness itself.
	if filterPhased(m) && r.allAlive() {
		contrib, err := groundTruthContributors(x)
		if err != nil {
			return nil, nil, err
		}
		violations = append(violations, trace.FilterSoundness(j, contrib)...)
	}
	if r.AutoAudit {
		rec.Truncate(mark)
	}
	return res, violations, nil
}

// sameRowSet compares two results order-insensitively (ORDER BY-less
// queries return rows in collection order, which recovery can permute).
func sameRowSet(a, b []Row) bool {
	if len(a) != len(b) {
		return false
	}
	ca, cb := canonRowOrder(a), canonRowOrder(b)
	for i := range ca {
		ra, rb := ca[i], cb[i]
		if len(ra) != len(rb) {
			return false
		}
		for c := range ra {
			if ra[c] != rb[c] {
				return false
			}
		}
	}
	return true
}

func canonRowOrder(rows []Row) []Row {
	out := append([]Row(nil), rows...)
	sort.Slice(out, func(i, k int) bool {
		a, b := out[i], out[k]
		for c := 0; c < len(a) && c < len(b); c++ {
			if a[c] != b[c] {
				return a[c] < b[c]
			}
		}
		return len(a) < len(b)
	})
	return out
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

// auditPhases selects the method's phases that follow the leaves-first
// TAG slot schedule; dissemination phases flood downstream and are not
// slot-ordered.
func auditPhases(m Method) []string {
	var out []string
	for _, p := range m.Phases() {
		switch p {
		case PhaseJACollect, PhaseFinalCollect, PhaseExternal:
			out = append(out, p)
		}
	}
	return out
}

// filterPhased reports whether the method disseminates a join filter
// (and so emits suppress/prune decisions worth auditing).
func filterPhased(m Method) bool {
	for _, p := range m.Phases() {
		if p == PhaseFilterDissem {
			return true
		}
	}
	return false
}

// groundTruthContributors computes, network-free, the set of nodes whose
// tuple appears in the exact query result — the oracle the filter
// soundness audit checks suppress decisions against.
func groundTruthContributors(x *Exec) (map[topology.NodeID]bool, error) {
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
	_, contrib := exactJoin(x, tuples)
	return contrib, nil
}
