package bench

import (
	"runtime"
	"testing"

	"sensjoin/internal/core"
	"sensjoin/internal/workload"
)

// A fresh runner's first SENS-Join round at 100,000 nodes, the
// sim_scale cell, allocates per node only what each node uses: every
// node carries the dense Treecut part of its state, and only the fifth
// that stays past Treecut carves a tail. With the whole per-node state
// in every node the round allocated 407 bytes per node; it now measures
// 286 (seed 42, 2 shards), and the ceiling leaves a tenth of headroom.
func TestScaleFreshSENSRoundBytes(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 100,000-node deployment")
	}
	const nodes, ceiling = 100_000, 315.0
	dep, env, tree, err := scaleSetup(nodes, 42, 2)
	if err != nil {
		t.Fatal(err)
	}
	r := core.NewRunnerFromSetup(dep, env, tree, core.SetupConfig{Shards: 2, SetupWorkers: 2})
	delta, _ := workload.Calibrate(r, workload.Ratio33(), 0.01)
	src := workload.CountQuery(delta)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res, err := r.Run(src, core.NewSENSJoin(), 0)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Complete || len(res.Rows) != 1 {
		t.Fatalf("round: complete=%t with %d rows, want one complete COUNT row", res.Complete, len(res.Rows))
	}
	perNode := float64(after.TotalAlloc-before.TotalAlloc) / float64(dep.N())
	t.Logf("first SENS-Join round of a fresh runner at %d nodes: %.0f bytes per node", nodes, perNode)
	if perNode > ceiling {
		t.Errorf("first SENS-Join round allocates %.0f bytes per node, want <= %.0f", perNode, ceiling)
	}
}
