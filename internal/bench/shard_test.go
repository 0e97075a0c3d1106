package bench

import (
	"fmt"
	"hash/fnv"
	"strings"
	"testing"

	"sensjoin/internal/core"
)

// shardSummary runs both join methods on a runner built with the given
// shard count and renders every table-visible observable to one string:
// per-phase packet totals, an FNV hash of the per-node transmission
// vector, and the result fields the experiment tables report.
func shardSummary(t *testing.T, nodes int, shards int) string {
	t.Helper()
	r, err := core.NewRunner(core.SetupConfig{
		Nodes: nodes, Seed: 7,
		Shards: shards, ShardWorkers: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	src := "SELECT A.temp, B.temp FROM Sensors A, Sensors B WHERE A.temp - B.temp > 3 ONCE"
	var b strings.Builder
	for _, m := range []core.Method{core.External{}, core.NewSENSJoin()} {
		// Run with rows (not runTotal, which drops them) so the row count
		// is compared across shard counts too.
		r.Stats.Reset()
		res, err := r.Run(src, m, 0)
		if err != nil {
			t.Fatal(err)
		}
		total := r.Stats.TotalTx(m.Phases()...)
		h := fnv.New64a()
		for _, v := range r.Stats.PerNodeTx(m.Phases()...) {
			fmt.Fprintf(h, "%d,", v)
		}
		fmt.Fprintf(&b, "%s total=%d pernode=%x rt=%.9f rows=%d contrib=%d complete=%v\n",
			m.Name(), total, h.Sum64(), res.ResponseTime, len(res.Rows),
			res.ContributingNodes, res.Complete)
		res.Release()
		for _, ph := range m.Phases() {
			fmt.Fprintf(&b, "  %s=%d\n", ph, r.Stats.TotalTx(ph))
		}
	}
	return b.String()
}

// TestShardCountDeterminism is the tentpole's acceptance bar: every
// protocol observable the experiment tables are built from must be
// byte-identical for shards ∈ {0, 1, 2, 4, 8}. ShardWorkers=4 forces
// real goroutines per window even on one CPU, so -race exercises the
// cross-region hand-off.
func TestShardCountDeterminism(t *testing.T) {
	const nodes = 500
	want := shardSummary(t, nodes, 0)
	for _, shards := range []int{1, 2, 4, 8} {
		if got := shardSummary(t, nodes, shards); got != want {
			t.Fatalf("shards=%d diverged:\n got:\n%s\nwant:\n%s", shards, got, want)
		}
	}
}
