package core

import (
	"testing"

	"sensjoin/internal/netsim"
	"sensjoin/internal/topology"
)

// Churn & mid-round repair tests: the repair path heals severed
// subtrees inside one execution, the incompleteness classifier covers
// every branch through the reliable scoped-recovery path, and sustained
// churn rounds audit clean (no silent wrong answers).

// entrySpellings are the two ways to start an execution on a Runner.
// The repair tests run over both: the tree-swap hook a repair reports
// through must reach an execution whichever way it started.
var entrySpellings = []struct {
	name string
	run  func(r *Runner, src string, m Method, t float64) (*Result, error)
}{
	{"Run", func(r *Runner, src string, m Method, t float64) (*Result, error) {
		return r.Run(src, m, t)
	}},
	{"RunPrepared", func(r *Runner, src string, m Method, t float64) (*Result, error) {
		p, err := r.Prepare(src)
		if err != nil {
			return nil, err
		}
		return r.RunPrepared(p, m, t)
	}},
}

// TestRepairHealsSeveredSubtreeMidRound severs a loaded tree edge while
// the round is in flight. Under reliable transport scoped recovery
// re-parents the orphaned subtree onto a surviving path and its recovery
// wave replays the subtree's traffic: the round ends complete and
// oracle-exact, with the repair visible in the result.
func TestRepairHealsSeveredSubtreeMidRound(t *testing.T) {
	for _, entry := range entrySpellings {
		t.Run(entry.name, func(t *testing.T) {
			r := testRunner(t, 150, 73)
			r.EnableReliableTransport(netsim.ReliableConfig{})
			child, parent := failLink(r)
			x, err := execSQL(r, qBand(0.5), 0)
			if err != nil {
				t.Fatal(err)
			}
			truth, err := GroundTruth(x)
			if err != nil {
				t.Fatal(err)
			}
			r.Sim.Schedule(0.5, func() { r.Net.LinkDown(child, parent) })
			res, err := entry.run(r, qBand(0.5), NewSENSJoin(), 0)
			if err != nil {
				t.Fatal(err)
			}
			if res.Repairs == 0 {
				t.Fatal("severed tree edge did not trigger a mid-round repair")
			}
			if !res.Complete {
				t.Fatalf("repair did not restore completeness (reason %q, missing %v)",
					res.IncompleteReason, res.MissingSubtrees)
			}
			if res.RepairLatency <= 0 {
				t.Fatalf("RepairLatency = %g, want > 0", res.RepairLatency)
			}
			sameRows(t, truth.Rows, res.Rows, "truth", "repaired")
			// The runner follows the swap: the repaired tree no longer
			// routes the orphan through the severed link.
			if r.Tree.Parent[child] == parent {
				t.Fatalf("runner tree still parents %d on %d across the downed link", child, parent)
			}
		})
	}
}

// TestRepairDisabledStaysIncomplete is the control: same severed edge
// without reliable transport, which is without scoped recovery and so
// without repair — the round must honestly report the missing subtree.
func TestRepairDisabledStaysIncomplete(t *testing.T) {
	for _, entry := range entrySpellings {
		t.Run(entry.name, func(t *testing.T) {
			r := testRunner(t, 150, 73)
			child, parent := failLink(r)
			r.Sim.Schedule(0.5, func() { r.Net.LinkDown(child, parent) })
			res, err := entry.run(r, qBand(0.5), NewSENSJoin(), 0)
			if err != nil {
				t.Fatal(err)
			}
			if res.Complete {
				t.Fatal("severed subtree with repair disabled cannot be complete")
			}
			if res.Repairs != 0 {
				t.Fatalf("Repairs = %d with repair disabled", res.Repairs)
			}
			if res.IncompleteReason == "" || len(res.MissingSubtrees) == 0 {
				t.Fatalf("incomplete result lacks provenance: reason %q, missing %v",
					res.IncompleteReason, res.MissingSubtrees)
			}
		})
	}
}

// TestRecoveryReasonPartition: the victim leaf is alive but every link
// to it is down — scoped recovery must classify the missing subtree as
// a partition, not loss.
func TestRecoveryReasonPartition(t *testing.T) {
	r := lineRunner(t, 4) // chain 0-1-2-3-4
	r.EnableReliableTransport(netsim.ReliableConfig{})
	victim := topology.NodeID(4)
	r.Net.LinkDown(victim, r.Tree.Parent[victim])
	res, err := r.Run(qBand(10), NewSENSJoin(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Complete {
		t.Fatal("partitioned leaf cannot be complete")
	}
	if res.IncompleteReason != ReasonPartition {
		t.Fatalf("IncompleteReason = %q, want %q", res.IncompleteReason, ReasonPartition)
	}
	if len(res.MissingSubtrees) != 1 || res.MissingSubtrees[0] != victim {
		t.Fatalf("MissingSubtrees = %v, want [%d]", res.MissingSubtrees, victim)
	}
}

// TestRecoveryReasonDeadSubtree: a relay dies mid-round; its subtree is
// missing because it is dead, and the verdict must say so.
func TestRecoveryReasonDeadSubtree(t *testing.T) {
	r := lineRunner(t, 4)
	r.EnableReliableTransport(netsim.ReliableConfig{})
	victim := topology.NodeID(2)
	r.Sim.Schedule(0.5, func() { r.Net.KillNode(victim) })
	res, err := r.Run(qBand(10), NewSENSJoin(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Complete {
		t.Fatal("dead relay cannot leave the round complete")
	}
	if res.IncompleteReason != ReasonDeadSubtree {
		t.Fatalf("IncompleteReason = %q, want %q", res.IncompleteReason, ReasonDeadSubtree)
	}
	if len(res.MissingSubtrees) == 0 {
		t.Fatal("dead subtree not named in MissingSubtrees")
	}
}

// TestRecoveryReasonLoss: both directions of a tree edge are jammed at
// 100% loss. The link is physically up and the subtree alive and
// connected, so the only honest classification is loss.
func TestRecoveryReasonLoss(t *testing.T) {
	r := lineRunner(t, 4)
	r.EnableReliableTransport(netsim.ReliableConfig{})
	r.Net.SetLinkLossRate(1, 2, 1.0)
	r.Net.SetLinkLossRate(2, 1, 1.0)
	res, err := r.Run(qBand(10), NewSENSJoin(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Complete {
		t.Fatal("fully jammed tree edge cannot leave the round complete")
	}
	if res.IncompleteReason != ReasonLoss {
		t.Fatalf("IncompleteReason = %q, want %q", res.IncompleteReason, ReasonLoss)
	}
	if len(res.MissingSubtrees) != 1 || res.MissingSubtrees[0] != 2 {
		t.Fatalf("MissingSubtrees = %v, want [2]", res.MissingSubtrees)
	}
}

// TestChurnRoundsAuditClean drives several query rounds under live
// churn with reliable transport (and so mid-round repair), auditing
// every round (including the churn-safety pass): zero violations, and
// every incomplete round must carry a reason and name its missing
// subtrees.
func TestChurnRoundsAuditClean(t *testing.T) {
	r := testRunner(t, 150, 101)
	r.AutoAudit = true
	r.EnableReliableTransport(netsim.ReliableConfig{})
	ch := r.AttachChurn(netsim.ChurnConfig{Seed: 17, Rate: 0.01, Epoch: 10})
	complete := 0
	const rounds = 6
	for i := 0; i < rounds; i++ {
		ch.Cover(r.Sim.Now() + 60)
		res, err := r.Run(qBand(0.5), NewSENSJoin(), 0, Audited())
		if err != nil {
			t.Fatal(err)
		}
		violations := res.Violations
		if len(violations) != 0 {
			t.Fatalf("round %d: audit violations under churn: %v", i, violations)
		}
		if res.Complete {
			complete++
		} else if res.IncompleteReason == "" || len(res.MissingSubtrees) == 0 {
			t.Fatalf("round %d: incomplete without provenance: reason %q, missing %v",
				i, res.IncompleteReason, res.MissingSubtrees)
		}
	}
	if complete == 0 {
		t.Fatalf("no round completed across %d churn rounds", rounds)
	}
	if ch.Deaths == 0 {
		t.Fatal("churn produced no deaths; the test exercised nothing")
	}
}

// TestSoakChurn is the chaos soak: sustained churn over many rounds
// with reliable transport, mid-round repair and full auditing. Asserts
// the graceful-degradation contract in bulk — complete rounds are
// oracle-exact, incomplete rounds carry provenance, at least one
// mid-round repair succeeded, and completeness stays above a floor.
func TestSoakChurn(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos soak skipped in -short mode")
	}
	r := testRunner(t, 200, 131)
	r.AutoAudit = true
	r.EnableReliableTransport(netsim.ReliableConfig{})
	// Churn budget leans toward mobility (small DeathShare): moved nodes
	// sever links mid-round but their data is recoverable over repaired
	// paths, which is exactly the behaviour the soak wants to prove.
	ch := r.AttachChurn(netsim.ChurnConfig{Seed: 29, Rate: 0.006, Epoch: 8, DeathShare: 0.05, Speed: 3})
	const rounds = 12
	complete, repairs := 0, 0
	for i := 0; i < rounds; i++ {
		ch.Cover(r.Sim.Now() + 80)
		res, err := r.Run(qBand(0.5), NewSENSJoin(), 0, Audited())
		if err != nil {
			t.Fatal(err)
		}
		violations := res.Violations
		if len(violations) != 0 {
			t.Fatalf("round %d: audit violations: %v", i, violations)
		}
		repairs += res.Repairs
		if res.Complete {
			complete++
		} else if res.IncompleteReason == "" || len(res.MissingSubtrees) == 0 {
			t.Fatalf("round %d: incomplete without provenance", i)
		}
	}
	t.Logf("churn soak: %d/%d rounds complete, %d mid-round repairs, %d deaths, %d moves",
		complete, rounds, repairs, ch.Deaths, ch.Moves)
	if repairs == 0 {
		t.Fatalf("no mid-round repair across %d churn rounds", rounds)
	}
	if complete*2 < rounds {
		t.Fatalf("completeness collapsed: %d/%d rounds complete", complete, rounds)
	}
}
