package trace

import "sensjoin/internal/topology"

// Churn safety audit — the sixth pass. Under churn a run may
// legitimately end incomplete, but it must never be silently wrong:
// every result is either oracle-exact or explicitly flagged with a
// reason and the exact subtrees it is missing. The pass also checks the
// injector's physical model against the journal: a dead node is
// radio-silent until its rejoin.

// ChurnVerdict carries the execution-level facts the caller (core's
// audit segment) established: whether the result was complete, whether its
// rows matched the pre-run ground truth, and the incompleteness
// annotations it shipped.
type ChurnVerdict struct {
	// Complete mirrors Result.Complete.
	Complete bool
	// OracleExact reports whether the result rows equal the ground truth
	// computed before the run (order-normalized).
	OracleExact bool
	// Reason mirrors Result.IncompleteReason.
	Reason string
	// MissingSubtrees is the count of Result.MissingSubtrees entries.
	MissingSubtrees int
	// Repairs mirrors Result.Repairs.
	Repairs int
}

// ChurnSafety audits one round under churn, given the verdict of each
// of its executions (a shared round has one per member query):
//
//  1. No silent wrong answers: a result claiming completeness must be
//     oracle-exact.
//  2. Honest degradation: an incomplete result must carry a reason, and
//     when rows of the ground truth are actually absent it must name at
//     least one missing subtree — per-subtree provenance, not a bare
//     flag. (A count-based verdict may be conservatively incomplete
//     with the rows all present — e.g. lost phase-A coverage reports —
//     and then there is no subtree to blame.)
//  3. Radio silence of the dead: after a node's churn-death event it
//     transmits nothing until a churn-rejoin event revives it. This is
//     the round's, checked once whatever the number of verdicts.
func ChurnSafety(j *Journal, verdicts ...ChurnVerdict) []Violation {
	var out []Violation
	for _, v := range verdicts {
		if v.Complete && !v.OracleExact {
			out = violate(out, "churn-safety", "result claims completeness but differs from the ground truth (repairs=%d)", v.Repairs)
		}
		if !v.Complete {
			if v.Reason == "" {
				out = violate(out, "churn-safety", "incomplete result carries no IncompleteReason")
			}
			if !v.OracleExact && v.MissingSubtrees == 0 {
				out = violate(out, "churn-safety", "incomplete result misses ground-truth rows but names no missing subtree")
			}
		}
	}
	dead := make(map[topology.NodeID]bool)
	for _, ev := range j.Events {
		switch ev.Kind {
		case KindChurnDeath:
			dead[ev.Node] = true
		case KindChurnRejoin:
			delete(dead, ev.Node)
		case KindTx:
			if dead[ev.Node] {
				out = violate(out, "churn-safety", "dead node %d transmitted at t=%.6f (phase %q)", ev.Node, ev.At, ev.Phase)
			}
		}
	}
	return out
}
