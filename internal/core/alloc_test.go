package core

import (
	"runtime"
	"testing"
	"unsafe"

	"sensjoin/internal/zorder"
)

// filterFixture builds a plan and its key set at 400 nodes.
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
	p := buildPlan(x)
	var keys []zorder.Key
	for _, nd := range p.nodes {
		if nd.flags != 0 {
			keys = append(keys, nd.key)
		}
	}
	return p, keys
}

// oneSlab reports whether rows are exactly sized and carved back to back
// from one cell slab.
func oneSlab(rows []Row) bool {
	if cap(rows) != len(rows) {
		return false
	}
	for i := 1; i < len(rows); i++ {
		if unsafe.Add(unsafe.Pointer(&rows[i-1][0]), 8*len(rows[i-1])) != unsafe.Pointer(&rows[i][0]) {
			return false
		}
	}
	return true
}

// The kernel's sizing rule, pinned per shape in allocations and in bytes
// per call (the kernel's fixed working set — plan, probes, contributor
// set — included, so every bound has slack; a 4096-row slab is 64 KB per
// column and trips each of the small ones).
//
//   - An indexed plan counts its matches before it emits, so a plain
//     result is one row-header slice and one cell slab at every size.
//   - A streaming plan doubles its slab from one row, so a small result
//     costs a few small slabs and a large one at most twice its cells
//     (plus what append's regrowth of the row headers adds up to: about
//     five times their final size).
//   - An aggregate or a grouped query folds every combination through
//     one scratch row: no slab, however many combinations match.
//
// The contributor set still grows by doubling (the match list lives in
// the kernel scratch), so the large count bound is per thousand rows,
// not absolute.
func TestJoinKernelEmitAllocs(t *testing.T) {
	const from = " FROM Sensors A, Sensors B WHERE "
	cases := []struct {
		name, src        string
		tuples           int
		minRows, maxRows int
		streamed, slab   bool
		allocs           func(rows int) float64
		bytes            func(rows, width int) uint64
	}{
		{name: "indexed, large",
			src:    "SELECT A.temp, B.temp, A.hum, B.hum, A.pres, B.pres" + from + "A.temp - B.temp > 4 ONCE",
			tuples: 800, minRows: 200000, maxRows: 1 << 30, slab: true,
			allocs: func(rows int) float64 { return float64(rows) / 1000 },
			bytes:  func(rows, width int) uint64 { return uint64(rows*(24+8*width)) + 128<<10 }},
		{name: "indexed, small",
			src:    "SELECT A.temp, B.temp, A.hum, B.hum, A.pres, B.pres" + from + "A.temp - B.temp > 37 ONCE",
			tuples: 60, minRows: 1, maxRows: 32, slab: true,
			allocs: func(int) float64 { return 40 },
			bytes:  func(rows, width int) uint64 { return uint64(rows*(24+8*width)) + 4<<10 }},
		{name: "streaming, small",
			src:    "SELECT A.temp, B.temp, A.hum, B.hum, A.pres, B.pres" + from + "distance(A.x, A.y, B.x, B.y) > 1150 ONCE",
			tuples: 60, minRows: 1, maxRows: 32, streamed: true,
			allocs: func(int) float64 { return 50 },
			bytes:  func(rows, width int) uint64 { return 2*uint64(rows*(24+8*width)) + 6<<10 }},
		{name: "streaming, large",
			src:    "SELECT A.temp, B.temp" + from + "distance(A.x, A.y, B.x, B.y) > 100 ONCE",
			tuples: 200, minRows: 20000, maxRows: 1 << 30, streamed: true,
			allocs: func(rows int) float64 { return 80 + float64(rows)/4096 },
			bytes:  func(rows, width int) uint64 { return uint64(rows*(6*24+2*8*width)) + 64<<10 }},
		{name: "aggregate",
			src:    "SELECT MIN(A.temp - B.temp), COUNT(B.temp)" + from + "A.temp - B.temp > 4 ONCE",
			tuples: 800, minRows: 1, maxRows: 1,
			allocs: func(int) float64 { return 60 },
			bytes:  func(int, int) uint64 { return 64 << 10 }},
		{name: "grouped",
			src:    "SELECT A.bucket, COUNT(B.temp), MAX(B.temp)" + from + "A.temp - B.temp > 4 GROUP BY A.bucket ONCE",
			tuples: 60, minRows: 20, maxRows: 40,
			allocs: func(int) float64 { return 4000 },
			bytes:  func(int, int) uint64 { return 80 << 10 }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			x := kernelExec(t, c.src)
			tuples, cols := benchTuples(c.tuples)
			var rows []Row
			plans := capturePlans(func() { rows = exactJoinOver(x, cols, tuples, true).rows })
			if len(rows) < c.minRows || len(rows) > c.maxRows {
				t.Fatalf("fixture drifted: %d rows, want %d..%d", len(rows), c.minRows, c.maxRows)
			}
			if plans[0].Streamed != c.streamed {
				t.Fatalf("fixture drifted: streamed=%t, want %t", plans[0].Streamed, c.streamed)
			}
			if c.slab && !oneSlab(rows) {
				t.Errorf("%d rows are not one exact row-header slice over one slab", len(rows))
			}
			allocs := testing.AllocsPerRun(3, func() { exactJoinOver(x, cols, tuples, true) })
			if limit := c.allocs(len(rows)); allocs > limit {
				t.Errorf("%d rows: %.0f allocs/run, want <= %.0f", len(rows), allocs, limit)
			}
			const runs = 4
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < runs; i++ {
				exactJoinOver(x, cols, tuples, true)
			}
			runtime.ReadMemStats(&after)
			got := (after.TotalAlloc - before.TotalAlloc) / runs
			if limit := c.bytes(len(rows), len(rows[0])); got > limit {
				t.Errorf("%d rows: %d bytes/run, want <= %d", len(rows), got, limit)
			}
			t.Logf("%d rows: %.0f allocs, %d bytes per run", len(rows), allocs, got)
		})
	}
}
