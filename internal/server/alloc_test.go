package server

import (
	"runtime"
	"testing"

	"sensjoin/internal/geom"
	"sensjoin/internal/relation"
	"sensjoin/pkg/client"
)

// What one small query costs the whole process — client, codec, session,
// admission, prepared cache, leased runner, simulation, base-station join —
// is pinned in bytes: the daemon's common query is an answer of a few
// rows, and nothing on its path may allocate by the thousand rows (a
// 4096-row result slab alone was 64 KB a column). Measured: about 6.7 KB
// (the round carves what it sends from the runner's round arenas and
// fills its plan into the runner's node slab, the plan's shape comes
// with the cached Prepared, the client reuses a finished stream's
// channel, control frames are binary and the client decodes each once),
// 8.5–8.7 KB under the race detector; the ceiling is the latter plus
// 15%.
func TestSmallQueryAllocBytes(t *testing.T) {
	s, _ := startTestServer(t, Config{})
	c, err := client.Dial(s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	queries := []string{
		`SELECT A.temp, B.temp, A.hum, B.hum FROM Sensors A, Sensors B WHERE A.temp - B.temp > 7.0 ONCE`,
		`SELECT A.temp, B.x, B.y FROM Sensors A, Sensors B WHERE A.temp = B.temp AND A.hum < 46 ONCE`,
		`SELECT MIN(distance(A.x, A.y, B.x, B.y)), COUNT(A.temp) FROM Sensors A, Sensors B WHERE A.temp - B.temp > 6.0 ONCE`,
		`SELECT A.temp, AVG(B.hum) FROM Sensors A, Sensors B WHERE A.temp - B.temp > 6.5 GROUP BY A.temp ONCE`,
	}
	run := func(n int) {
		for i := 0; i < n; i++ {
			tb, err := c.Query(queries[i%len(queries)])
			if err != nil {
				t.Fatal(err)
			}
			if len(tb.Rows) == 0 || len(tb.Rows) > 32 {
				t.Fatalf("fixture drifted: %q returns %d rows, want 1..32", queries[i%len(queries)], len(tb.Rows))
			}
		}
	}
	run(2 * len(queries)) // prepared cache, runner pool and scratch warm
	const n = 200
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	run(n)
	runtime.ReadMemStats(&after)
	perQuery := (after.TotalAlloc - before.TotalAlloc) / n
	t.Logf("%d bytes per query", perQuery)
	if perQuery > 10<<10 {
		t.Errorf("a small query allocates %d bytes, want under %d", perQuery, 10<<10)
	}
}

// A prepared-cache hit allocates nothing: the deployment-scoped key is a
// struct, not a concatenated string.
func TestPreparedCacheHitAllocs(t *testing.T) {
	c := newPreparedCache(newServerMetrics(nil))
	p := &pool{key: poolKey{nodes: 150, seed: 42}, cat: relation.Catalog{"Sensors": relation.StandardSchema(geom.Square(300))}}
	const src = `SELECT A.temp FROM Sensors A, Sensors B WHERE A.temp - B.temp > 5.0 ONCE`
	first, hit, err := c.lookup(p, src)
	if err != nil || hit {
		t.Fatalf("first lookup: hit %t, err %v", hit, err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if prep, hit, err := c.lookup(p, src); err != nil || !hit || prep != first {
			t.Fatalf("repeated lookup: hit %t, err %v, same Prepared %t", hit, err, prep == first)
		}
	})
	if allocs != 0 {
		t.Errorf("a prepared-cache hit allocates %.0f times, want 0", allocs)
	}
}
