package core

import (
	"fmt"
	"testing"

	"sensjoin/internal/metrics"
	"sensjoin/internal/netsim"
	"sensjoin/internal/topology"
	"sensjoin/internal/trace"
	"sensjoin/internal/zorder"
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
	run  func(r *Runner, src string, m Method, t float64, opts ...RunOption) (*Result, error)
}{
	{"Run", func(r *Runner, src string, m Method, t float64, opts ...RunOption) (*Result, error) {
		return r.Run(src, m, t, opts...)
	}},
	{"RunPrepared", func(r *Runner, src string, m Method, t float64, opts ...RunOption) (*Result, error) {
		p, err := r.Prepare(src)
		if err != nil {
			return nil, err
		}
		return r.RunPrepared(p, m, t, opts...)
	}},
}

// roundSpelling is one kind of round the attempt loop runs: run executes
// the first members of srcs with SENS-Join at time 0 and returns one
// result per member.
type roundSpelling struct {
	name    string
	members int
	run     func(r *Runner, srcs []string, opts ...RunOption) ([]*Result, error)
}

// roundSpellings are a lone query, started each way entrySpellings
// lists, and a QueryGroup cluster of two compatible members. Recovery,
// repair and the audits belong to the round, so each test of them runs
// over all three.
func roundSpellings() []roundSpelling {
	var out []roundSpelling
	for _, entry := range entrySpellings {
		out = append(out, roundSpelling{entry.name, 1, func(r *Runner, srcs []string, opts ...RunOption) ([]*Result, error) {
			res, err := entry.run(r, srcs[0], NewSENSJoin(), 0, opts...)
			return []*Result{res}, err
		}})
	}
	return append(out, roundSpelling{"QueryGroup", 2, func(r *Runner, srcs []string, opts ...RunOption) ([]*Result, error) {
		g, err := clusterOf(r, srcs[:2])
		if err != nil {
			return nil, err
		}
		return g.RunRound(r, 0, opts...)
	}})
}

// clusterOf returns a query group of srcs prepared on r, refusing
// queries that do not share one cluster.
func clusterOf(r *Runner, srcs []string) (*QueryGroup, error) {
	g := NewQueryGroup(Options{})
	for _, src := range srcs {
		p, err := r.Prepare(src)
		if err != nil {
			return nil, err
		}
		if _, err := g.Add(p); err != nil {
			return nil, err
		}
	}
	if g.Clusters() != 1 {
		return nil, fmt.Errorf("%d clusters, want the members in one", g.Clusters())
	}
	return g, nil
}

// groundTruths returns the oracle of each of srcs at time t on r as it
// stands.
func groundTruths(t *testing.T, r *Runner, srcs []string, at float64) []*Result {
	t.Helper()
	out := make([]*Result, len(srcs))
	for j, src := range srcs {
		x, err := execSQL(r, src, at)
		if err != nil {
			t.Fatal(err)
		}
		if out[j], err = GroundTruth(x); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// TestRepairHealsSeveredSubtreeMidRound severs a loaded tree edge while
// the round is in flight. Under reliable transport scoped recovery
// re-parents the orphaned subtree onto a surviving path and its recovery
// wave replays the subtree's traffic: the round ends complete and
// oracle-exact, with the repair visible in every member's result — the
// repair is the round's, not its first member's.
func TestRepairHealsSeveredSubtreeMidRound(t *testing.T) {
	for _, lane := range roundSpellings() {
		t.Run(lane.name, func(t *testing.T) {
			r := testRunner(t, 150, 73)
			child, parent := failLink(r)
			srcs := []string{qBand(0.5), qBand(0.6)}[:lane.members]
			truths := groundTruths(t, r, srcs, 0)
			r.Sim.Schedule(0.5, func() { r.Net.LinkDown(child, parent) })
			results, err := lane.run(r, srcs, WithReliable(netsim.ReliableConfig{}))
			if err != nil {
				t.Fatal(err)
			}
			for j, res := range results {
				if res.Repairs == 0 {
					t.Fatalf("member %d: severed tree edge did not trigger a mid-round repair", j)
				}
				if !res.Complete {
					t.Fatalf("member %d: repair did not restore completeness (reason %q, missing %v)",
						j, res.IncompleteReason, res.MissingSubtrees)
				}
				if res.RepairLatency <= 0 {
					t.Fatalf("member %d: RepairLatency = %g, want > 0", j, res.RepairLatency)
				}
				sameTable(t, truths[j], res, fmt.Sprintf("repaired member %d", j))
			}
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
// without repair — every member of the round must honestly report the
// missing subtree.
func TestRepairDisabledStaysIncomplete(t *testing.T) {
	for _, lane := range roundSpellings() {
		t.Run(lane.name, func(t *testing.T) {
			r := testRunner(t, 150, 73)
			child, parent := failLink(r)
			r.Sim.Schedule(0.5, func() { r.Net.LinkDown(child, parent) })
			results, err := lane.run(r, []string{qBand(0.5), qBand(0.6)}[:lane.members])
			if err != nil {
				t.Fatal(err)
			}
			for j, res := range results {
				if res.Complete {
					t.Fatalf("member %d: severed subtree with repair disabled cannot be complete", j)
				}
				if res.Repairs != 0 {
					t.Fatalf("member %d: Repairs = %d with repair disabled", j, res.Repairs)
				}
				if res.IncompleteReason == "" || len(res.MissingSubtrees) == 0 {
					t.Fatalf("member %d: incomplete result lacks provenance: reason %q, missing %v",
						j, res.IncompleteReason, res.MissingSubtrees)
				}
			}
		})
	}
}

// TestRecoveryReasonPartition: the victim leaf is alive but every link
// to it is down — scoped recovery must classify the missing subtree as
// a partition, not loss.
func TestRecoveryReasonPartition(t *testing.T) {
	r := lineRunner(t, 4) // chain 0-1-2-3-4
	victim := topology.NodeID(4)
	r.Net.LinkDown(victim, r.Tree.Parent[victim])
	res, err := r.Run(qBand(10), NewSENSJoin(), 0, WithReliable(netsim.ReliableConfig{}))
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
	victim := topology.NodeID(2)
	r.Sim.Schedule(0.5, func() { r.Net.KillNode(victim) })
	res, err := r.Run(qBand(10), NewSENSJoin(), 0, WithReliable(netsim.ReliableConfig{}))
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
	r.Net.SetLinkLossRate(1, 2, 1.0)
	r.Net.SetLinkLossRate(2, 1, 1.0)
	res, err := r.Run(qBand(10), NewSENSJoin(), 0, WithReliable(netsim.ReliableConfig{}))
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
	ch := netsim.NewChurn(r.Net, netsim.ChurnConfig{Seed: 17, Rate: 0.01, Epoch: 10})
	complete := 0
	const rounds = 6
	for i := 0; i < rounds; i++ {
		ch.Cover(r.Sim.Now() + 60)
		res, err := r.Run(qBand(0.5), NewSENSJoin(), 0, WithReliable(netsim.ReliableConfig{}), WithChurn(ch), Audited())
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

// TestQueryGroupChurnAuditRuns plants a silent wrong answer in a shared
// round under churn: an empty filter suppresses every tuple outside
// Treecut, and since no key is filtered in, every member claims to be
// complete with rows short of the oracle. The churn-safety pass must
// catch it for each member — which proves a QueryGroup round runs all six
// audit passes, as FuzzRoundIsExact's cluster lane assumes.
func TestQueryGroupChurnAuditRuns(t *testing.T) {
	r := testRunner(t, 150, 101)
	ch := netsim.NewChurn(r.Net, netsim.ChurnConfig{Seed: 17, Rate: 0.01, Epoch: 10})
	ch.Cover(r.Sim.Now() + 60)
	srcs := []string{qBand(0.5), qBand(0.6)}
	truths := groundTruths(t, r, srcs, 0)
	filterHook = func(*plan, []zorder.Key) []zorder.Key { return nil }
	defer func() { filterHook = nil }()
	g, err := clusterOf(r, srcs)
	if err != nil {
		t.Fatal(err)
	}
	results, err := g.RunRound(r, 0, WithChurn(ch), Audited())
	if err != nil {
		t.Fatal(err)
	}
	for j, res := range results {
		if !res.Complete || len(res.Rows) >= len(truths[j].Rows) {
			t.Fatalf("member %d: the planted filter did not plant a wrong answer (complete=%t, %d rows, oracle %d)",
				j, res.Complete, len(res.Rows), len(truths[j].Rows))
		}
	}
	churn := 0
	for _, v := range results[0].Violations {
		if v.Audit == "churn-safety" {
			churn++
		}
	}
	if churn != len(results) {
		t.Fatalf("%d churn-safety violation(s) for %d wrong members; violations: %v", churn, len(results), results[0].Violations)
	}
}

// TestQueryGroupUnderChurnAndLoss drives a QueryGroup through several
// epochs of 1% churn and 5% loss with reliable transport, auditing every
// round: each member is oracle-exact or flagged with provenance, and
// carries the repairs its round made.
func TestQueryGroupUnderChurnAndLoss(t *testing.T) {
	r := testRunner(t, 150, 101)
	ch := netsim.NewChurn(r.Net, netsim.ChurnConfig{Seed: 17, Rate: 0.01, Epoch: 10})
	srcs := []string{qBand(0.5), qBand(0.6), qBand(0.7)}
	g, err := clusterOf(r, srcs)
	if err != nil {
		t.Fatal(err)
	}
	const epochs = 6
	complete, repairs := 0, 0
	for e := 0; e < epochs; e++ {
		at := float64(e) * 30
		ch.Cover(r.Sim.Now() + 60)
		truths := groundTruths(t, r, srcs, at)
		results, err := g.RunRound(r, at, WithLoss(0.05, 7), WithReliable(netsim.ReliableConfig{}), WithChurn(ch), Audited())
		if err != nil {
			t.Fatal(err)
		}
		for j, res := range results {
			if v := res.Violations; len(v) > 0 {
				t.Fatalf("epoch %d member %d: %d audit violation(s), first: %s", e, j, len(v), v[0])
			}
			if res.Repairs != results[0].Repairs || res.RepairLatency != results[0].RepairLatency {
				t.Fatalf("epoch %d member %d: repairs %d after %gs, the round made %d after %gs",
					e, j, res.Repairs, res.RepairLatency, results[0].Repairs, results[0].RepairLatency)
			}
			switch {
			case res.Complete:
				sameTable(t, truths[j], res, fmt.Sprintf("epoch %d member %d", e, j))
				complete++
			case res.IncompleteReason == "" || len(res.MissingSubtrees) == 0:
				t.Fatalf("epoch %d member %d: incomplete without provenance: reason %q, missing %v",
					e, j, res.IncompleteReason, res.MissingSubtrees)
			}
		}
		repairs += results[0].Repairs
		r.Sim.RunUntil(r.Sim.Now() + 30)
	}
	t.Logf("%d/%d member results complete, %d repairs, %d deaths, %d moves",
		complete, epochs*len(srcs), repairs, ch.Deaths, ch.Moves)
	if complete == 0 {
		t.Fatal("no member result completed")
	}
	if repairs == 0 {
		t.Fatal("no round repaired its tree; the repair attribution went unchecked")
	}
	if ch.Deaths+ch.Moves == 0 {
		t.Fatal("churn changed nothing; the test exercised nothing")
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
	// Churn budget leans toward mobility (small DeathShare): moved nodes
	// sever links mid-round but their data is recoverable over repaired
	// paths, which is exactly the behaviour the soak wants to prove.
	ch := netsim.NewChurn(r.Net, netsim.ChurnConfig{Seed: 29, Rate: 0.006, Epoch: 8, DeathShare: 0.05, Speed: 3})
	const rounds = 12
	complete, repairs := 0, 0
	for i := 0; i < rounds; i++ {
		ch.Cover(r.Sim.Now() + 80)
		res, err := r.Run(qBand(0.5), NewSENSJoin(), 0, WithReliable(netsim.ReliableConfig{}), WithChurn(ch), Audited())
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

// WithChurn wires the caller's injector for one execution: each tick
// that fires inside it counts in the runner's sensjoin_churn_*
// instruments and journals its deaths, rejoins and moves in the
// execution's recorder. A tick that fires between executions still
// changes the network, but is neither counted there nor journaled.
func TestWithChurnWiresOneExecution(t *testing.T) {
	r := testRunner(t, 150, 101)
	reg := metrics.New()
	r.EnableMetrics(reg)
	ticks := func() int64 { return reg.Snapshot()["sensjoin_churn_ticks_total"].(int64) }
	ch := netsim.NewChurn(r.Net, netsim.ChurnConfig{Seed: 17, Rate: 0.05, Epoch: 10})
	ch.Cover(r.Sim.Now() + 60)
	rec := trace.New()
	if _, err := r.Run(qBand(0.5), NewSENSJoin(), 0, WithChurn(ch), Traced(rec)); err != nil {
		t.Fatal(err)
	}
	journaled := 0
	for _, ev := range rec.Journal().Events {
		switch ev.Kind {
		case trace.KindChurnDeath, trace.KindChurnRejoin, trace.KindChurnMove:
			journaled++
		}
	}
	if ch.Ticks == 0 || ch.Deaths == 0 {
		t.Fatalf("%d ticks, %d deaths inside the execution: the test exercised nothing", ch.Ticks, ch.Deaths)
	}
	if got := ticks(); got != int64(ch.Ticks) {
		t.Fatalf("sensjoin_churn_ticks_total = %d, the execution fired %d ticks", got, ch.Ticks)
	}
	if want := ch.Deaths + ch.Rejoins + ch.Moves; journaled != want {
		t.Fatalf("%d churn events journaled, the injector made %d", journaled, want)
	}

	inside, mark := ch.Ticks, rec.Mark()
	ch.Cover(r.Sim.Now() + 60)
	r.Sim.RunUntil(r.Sim.Now() + 60)
	if ch.Ticks == inside {
		t.Fatal("no tick fired between executions")
	}
	if got := ticks(); got != int64(inside) || rec.Mark() != mark || ch.OnEvent != nil {
		t.Fatalf("between executions: ticks_total %d (want %d), %d events journaled, hook set: %t",
			got, inside, rec.Mark()-mark, ch.OnEvent != nil)
	}
}
