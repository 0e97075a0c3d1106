package core

import (
	"fmt"
	"testing"

	"sensjoin/internal/metrics"
	"sensjoin/internal/netsim"
	"sensjoin/internal/relation"
	"sensjoin/internal/tabledigest"
	"sensjoin/internal/topology"
)

// qTempBand builds compatible Q1-style band joins: identical SELECT
// list, relations and (absent) local predicates, differing only in the
// join-condition delta — the shape one shared cluster serves.
func qTempBand(delta float64) string {
	return fmt.Sprintf(
		"SELECT A.temp, A.hum, B.temp, B.hum FROM Sensors A, Sensors B WHERE A.temp - B.temp > %g ONCE", delta)
}

// addSrc prepares src against the standard catalog (clustering depends
// on the query alone, not on a deployment) and registers it.
func addSrc(g *QueryGroup, src string) (int, error) {
	schema := relation.StandardSchema(topology.ScaledArea(150))
	p, err := Prepare(relation.Catalog{schema.Name: schema}, src)
	if err != nil {
		return 0, err
	}
	return g.Add(p)
}

func mustAdd(t *testing.T, g *QueryGroup, src string) int {
	t.Helper()
	idx, err := addSrc(g, src)
	if err != nil {
		t.Fatalf("Add(%q): %v", src, err)
	}
	return idx
}

// Compatible queries — including canonically equal spellings of the
// local predicates — must share a cluster; different local predicates
// or different join attributes must split.
func TestQueryGroupClustering(t *testing.T) {
	g := NewQueryGroup(Options{})
	a := mustAdd(t, g, "SELECT A.temp, B.temp FROM Sensors A, Sensors B WHERE A.temp - B.temp > 3 AND A.hum > 2 + 1 ONCE")
	b := mustAdd(t, g, "SELECT A.temp, B.temp FROM Sensors A, Sensors B WHERE A.temp - B.temp > 5 AND 3 < A.hum ONCE")
	c := mustAdd(t, g, "SELECT A.temp, B.temp FROM Sensors A, Sensors B WHERE A.temp - B.temp > 3 AND A.hum > 4 ONCE")
	d := mustAdd(t, g, qBand(0.4)) // adds a distance condition: join attrs {temp,x,y}

	if g.ClusterOf(a) != g.ClusterOf(b) {
		t.Errorf("canonically equal local predicates must cluster: %d vs %d", g.ClusterOf(a), g.ClusterOf(b))
	}
	if g.ClusterOf(a) == g.ClusterOf(c) {
		t.Error("different local predicates must not cluster")
	}
	if g.ClusterOf(a) == g.ClusterOf(d) {
		t.Error("different join attributes must not cluster")
	}
	if g.Clusters() != 3 {
		t.Errorf("Clusters = %d, want 3", g.Clusters())
	}
	if g.Len() != 4 {
		t.Errorf("Len = %d, want 4", g.Len())
	}
}

func TestQueryGroupRejectsNonJoins(t *testing.T) {
	g := NewQueryGroup(Options{})
	if _, err := addSrc(g, "SELECT A.temp FROM Sensors A ONCE"); err == nil {
		t.Error("single-relation query must be rejected")
	}
	if _, err := addSrc(g, "SELECT A.temp, B.temp FROM Sensors A, Sensors B ONCE"); err == nil {
		t.Error("cross join without join attributes must be rejected")
	}
	if _, err := g.RunRound(nil, 0); err == nil {
		t.Error("empty group must not run")
	}
}

// Every per-query table of a shared round must equal the ground truth
// for that query, across epochs and across clusters.
func TestQueryGroupMatchesGroundTruth(t *testing.T) {
	r := testRunner(t, 150, 301)
	g := NewQueryGroup(Options{})
	srcs := []string{qTempBand(2), qTempBand(2.5), qTempBand(3), qBand(0.4)}
	for _, s := range srcs {
		mustAdd(t, g, s)
	}
	if g.Clusters() != 2 {
		t.Fatalf("Clusters = %d, want 2", g.Clusters())
	}
	for round := 0; round < 3; round++ {
		tm := float64(round) * 30
		res, err := g.RunRound(r, tm)
		if err != nil {
			t.Fatal(err)
		}
		for i, s := range srcs {
			x, err := execSQL(r, s, tm)
			if err != nil {
				t.Fatal(err)
			}
			truth, err := GroundTruth(x)
			if err != nil {
				t.Fatal(err)
			}
			sameTable(t, truth, res[i], fmt.Sprintf("shared q%d round %d", i, round))
		}
	}
	if g.Rounds() != 3 {
		t.Fatalf("Rounds = %d, want 3", g.Rounds())
	}
}

// The differential guarantee: under reliable transport the per-query
// tables of a shared run are the tables of N independent continuous runs,
// bit for bit (columns, counts, completeness and every row's bits, in any
// row order) — at loss 0 and at 5% loss.
func TestQueryGroupByteIdenticalToIndependent(t *testing.T) {
	srcs := []string{qTempBand(2), qTempBand(2.5), qTempBand(3), qBand(0.4)}
	const epochs = 3
	const nodes = 150

	type key struct{ epoch, q int }
	runShared := func(loss float64) map[key]*Result {
		r := testRunner(t, nodes, 307)
		r.EnableReliableTransport(netsim.ReliableConfig{})
		if loss > 0 {
			r.Net.SetLossRate(loss, 911)
		}
		g := NewQueryGroup(Options{})
		for _, s := range srcs {
			mustAdd(t, g, s)
		}
		out := make(map[key]*Result)
		for e := 0; e < epochs; e++ {
			res, err := g.RunRound(r, float64(e)*30)
			if err != nil {
				t.Fatal(err)
			}
			for q, rr := range res {
				out[key{e, q}] = rr
			}
		}
		return out
	}
	runIndependent := func(loss float64) map[key]*Result {
		out := make(map[key]*Result)
		for q, s := range srcs {
			r := testRunner(t, nodes, 307)
			r.EnableReliableTransport(netsim.ReliableConfig{})
			if loss > 0 {
				r.Net.SetLossRate(loss, 911+int64(q))
			}
			m := NewContinuousSENSJoin()
			for e := 0; e < epochs; e++ {
				res, err := r.Run(s, m, float64(e)*30)
				if err != nil {
					t.Fatal(err)
				}
				out[key{e, q}] = res
			}
		}
		return out
	}

	for _, loss := range []float64{0, 0.05} {
		shared := runShared(loss)
		indep := runIndependent(loss)
		for e := 0; e < epochs; e++ {
			for q := range srcs {
				if d := tabledigest.Diff(shared[key{e, q}].Table(), indep[key{e, q}].Table()); d != "" {
					t.Fatalf("loss %g epoch %d query %d, shared vs independent: %s", loss, e, q, d)
				}
			}
		}
	}
}

// A shared round over compatible queries must transmit less than the
// same queries run independently — the point of the optimization.
func TestQueryGroupSharesTraffic(t *testing.T) {
	srcs := []string{qTempBand(2), qTempBand(2.5), qTempBand(3), qTempBand(3.5)}
	const epochs = 2

	r1 := testRunner(t, 200, 309)
	g := NewQueryGroup(Options{})
	for _, s := range srcs {
		mustAdd(t, g, s)
	}
	for e := 0; e < epochs; e++ {
		if _, err := g.RunRound(r1, float64(e)*30); err != nil {
			t.Fatal(err)
		}
	}
	sharedTx := r1.Stats.TotalTx(SENSPhases...)

	var indepTx int64
	for _, s := range srcs {
		r := testRunner(t, 200, 309)
		m := NewContinuousSENSJoin()
		for e := 0; e < epochs; e++ {
			if _, err := r.Run(s, m, float64(e)*30); err != nil {
				t.Fatal(err)
			}
		}
		indepTx += r.Stats.TotalTx(SENSPhases...)
	}
	if sharedTx*2 > indepTx {
		t.Fatalf("shared %d transmissions vs independent %d: not below 50%%", sharedTx, indepTx)
	}
	t.Logf("transmissions over %d epochs, %d queries: shared=%d independent=%d (%.0f%%)",
		epochs, len(srcs), sharedTx, indepTx, 100*float64(sharedTx)/float64(indepTx))
}

// An audited round over a mixed group: all passes clean, per cluster.
func TestQueryGroupAuditClean(t *testing.T) {
	r := testRunner(t, 150, 311)
	g := NewQueryGroup(Options{})
	for _, s := range []string{qTempBand(2), qTempBand(3), qBand(0.4)} {
		mustAdd(t, g, s)
	}
	for round := 0; round < 2; round++ {
		res, err := g.RunRound(r, float64(round)*30, Audited())
		if err != nil {
			t.Fatal(err)
		}
		if r.Trace == nil || len(r.Trace.Journal().Events) == 0 {
			t.Fatal("audited round recorded no events")
		}
		for i, rr := range res {
			if rr == nil || !rr.Complete {
				t.Fatalf("round %d query %d incomplete", round, i)
			}
			if v := rr.Violations; len(v) > 0 {
				t.Fatalf("round %d query %d: %d violation(s), first: %s", round, i, len(v), v[0])
			}
		}
	}
}

// There is one SENS-Join round body, and a single query is a cluster of
// one: a QueryGroup holding one query is, epoch for epoch, exactly the
// independent continuous run of that query — same table in the same
// order, same verdict, response time, packets, bytes and per-node memory
// — best-effort and under reliable transport at 5% loss, and it moves no
// sensjoin_mqo_* counter (there is nobody to tell apart, so no mask
// travels). Before the bodies were merged the singleton paid one mask
// byte per eight filter keys and one per collected tuple.
func TestSingletonClusterIsASingleQuery(t *testing.T) {
	const epochs = 3
	src := qTempBand(2.5)
	for _, reliable := range []bool{false, true} {
		twin := func() *Runner {
			r := testRunner(t, 150, 313)
			r.EnableMetrics(metrics.New())
			if reliable {
				r.EnableReliableTransport(netsim.ReliableConfig{})
				r.Net.SetLossRate(0.05, 917)
			}
			return r
		}
		alone, grouped := twin(), twin()
		m := NewContinuousSENSJoin()
		g := NewQueryGroup(Options{})
		p, err := grouped.Prepare(src)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := g.Add(p); err != nil {
			t.Fatal(err)
		}
		for e := 0; e < epochs; e++ {
			what := fmt.Sprintf("reliable=%t epoch %d", reliable, e)
			want, err := alone.Run(src, m, float64(e)*30)
			if err != nil {
				t.Fatal(err)
			}
			res, err := g.RunRound(grouped, float64(e)*30)
			if err != nil {
				t.Fatal(err)
			}
			got := res[0]
			sameOrder(t, want, got, what+": the singleton cluster vs the single query")
			if got.ResponseTime != want.ResponseTime || got.RecoveryRounds != want.RecoveryRounds {
				t.Fatalf("%s: response/recovery %g/%d, single query %g/%d", what,
					got.ResponseTime, got.RecoveryRounds, want.ResponseTime, want.RecoveryRounds)
			}
			phases := append([]string{PhaseRecovery}, SENSPhases...)
			if gp, wp := grouped.Stats.TotalTx(phases...), alone.Stats.TotalTx(phases...); gp != wp {
				t.Fatalf("%s: %d packets so far, single query %d", what, gp, wp)
			}
			if gb, wb := grouped.Stats.TotalTxBytes(phases...), alone.Stats.TotalTxBytes(phases...); gb != wb {
				t.Fatalf("%s: %d bytes so far, single query %d", what, gb, wb)
			}
			if gm := g.clusters[0].sens.Memory; gm != m.Memory {
				t.Fatalf("%s: memory report %+v, single query %+v", what, gm, m.Memory)
			}
		}
		if reliable && alone.Stats.TotalRetx() == 0 {
			t.Fatal("the 5% loss lane retransmitted nothing: it does not exercise the reliable path")
		}
		for _, r := range []*Runner{alone, grouped} {
			cm := r.Metrics
			if b, d, by := cm.MQOMergedBroadcasts.Value(), cm.MQODedupTuples.Value(), cm.MQOBitmapBytes.Value(); b != 0 || d != 0 || by != 0 {
				t.Fatalf("reliable=%t: sensjoin_mqo_* counters moved without a second member: broadcasts %d, dedup %d, bitmap bytes %d",
					reliable, b, d, by)
			}
		}
	}
}
