package server

import (
	"runtime"
	"testing"

	"sensjoin/pkg/client"
)

// What one small query costs the whole process — client, codec, session,
// admission, prepared cache, leased runner, simulation, base-station join —
// is pinned in bytes: the daemon's common query is an answer of a few
// rows, and nothing on its path may allocate by the thousand rows (a
// 4096-row result slab alone was 64 KB a column). Measured: about 14.5 KB
// (the round carves what it sends from the runner's round arenas, the
// client reuses a finished stream's channel); the ceiling is that plus
// 25%.
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
	if perQuery > 18<<10 {
		t.Errorf("a small query allocates %d bytes, want under %d", perQuery, 18<<10)
	}
}
