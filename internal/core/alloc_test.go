package core

import (
	"testing"
	"unsafe"

	"sensjoin/internal/zorder"
)

// filterFixture builds a plan and its key set for allocation tests.
func filterFixture(t *testing.T, src string) (*plan, []zorder.Key) {
	t.Helper()
	r, err := NewRunner(SetupConfig{Nodes: 400, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	x, err := execSQL(r, src, 0)
	if err != nil {
		t.Fatal(err)
	}
	p, err := buildPlan(x)
	if err != nil {
		t.Fatal(err)
	}
	var keys []zorder.Key
	for _, nd := range p.nodes {
		if nd.flags != 0 {
			keys = append(keys, nd.key)
		}
	}
	return p, keys
}

// The filter computations run once per query at the base station but
// dominated the experiment harness before they were moved onto pooled
// scratch buffers (measured: millions of allocations per call for the
// generic path at scale). These regression bounds are far above the
// current steady-state counts (tens of allocations) and far below the
// pre-optimization ones, so a reintroduced per-pair or per-level
// allocation trips them immediately.
func TestComputeFilterAllocs(t *testing.T) {
	src := "SELECT A.temp, B.temp FROM Sensors A, Sensors B WHERE abs(A.temp - B.temp) < 0.2 AND distance(A.x, A.y, B.x, B.y) > 100 ONCE"
	p, keys := filterFixture(t, src)

	computeFilter(p, keys, false) // warm the scratch pool
	allocs := testing.AllocsPerRun(10, func() {
		computeFilter(p, keys, false)
	})
	if allocs > 100 {
		t.Errorf("computeFilter (generic): %.0f allocs/run, want <= 100", allocs)
	}

	computeFilter(p, keys, true)
	allocs = testing.AllocsPerRun(10, func() {
		computeFilter(p, keys, true)
	})
	if allocs > 100 {
		t.Errorf("computeFilter (band index): %.0f allocs/run, want <= 100", allocs)
	}
}

// An indexed plan counts its matches before it emits, so a plain result
// of more than one slab is exactly two allocations however large it is:
// one row-header slice and one cell slab, the rows carved from it back
// to back. (Growing both as rows arrive cost a slab per 4096 rows plus
// the append doublings.)
// The contributor set still grows by doubling (the match list lives in
// the kernel scratch), so the count bound is per thousand rows, not
// absolute.
func TestJoinKernelEmitAllocs(t *testing.T) {
	x := kernelExec(t, "SELECT A.temp, B.temp, A.hum, B.hum, A.pres, B.pres FROM Sensors A, Sensors B WHERE A.temp - B.temp > 4 ONCE")
	tuples, cols := benchTuples(800)
	rows, _ := exactJoinOver(x, cols, tuples)
	if len(rows) < 200000 {
		t.Fatalf("fixture drifted: %d rows, want > 200000", len(rows))
	}
	if cap(rows) != len(rows) {
		t.Errorf("row headers: capacity %d for %d rows, want exact", cap(rows), len(rows))
	}
	width := len(rows[0])
	for i := 1; i < len(rows); i++ {
		if unsafe.Add(unsafe.Pointer(&rows[i-1][0]), 8*width) != unsafe.Pointer(&rows[i][0]) {
			t.Fatalf("row %d does not follow row %d in one slab", i, i-1)
		}
	}
	allocs := testing.AllocsPerRun(3, func() { exactJoinOver(x, cols, tuples) })
	if limit := float64(len(rows)) / 1000; allocs > limit {
		t.Errorf("%d rows: %.0f allocs/run, want <= %.0f", len(rows), allocs, limit)
	}
}
