package server

import (
	"errors"
	"testing"
	"time"

	"sensjoin/internal/tabledigest"
	"sensjoin/pkg/client"
)

// A query that exceeds QueryTimeout must answer with CodeTimeout AND
// release its execution slot. With MaxConcurrent=1 a leaked slot would
// deadlock every later query, so three sequential timeouts passing is
// the release proof; run with -race.
func TestQueryTimeoutReleasesSlot(t *testing.T) {
	s, reg := startTestServer(t, Config{
		MaxConcurrent: 1,
		QueryTimeout:  time.Nanosecond, // expires before any real epoch finishes
	})
	c, err := client.Dial(s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const n = 3
	for i := 0; i < n; i++ {
		_, err := c.Query(testQueries[0])
		var se *client.ServerError
		if !errors.As(err, &se) || se.Code != "timeout" {
			t.Fatalf("query %d: got %v, want ServerError code %q", i, err, "timeout")
		}
	}
	snap := reg.Snapshot()
	if v := snap["sensjoind_query_timeouts_total"].(int64); v != n {
		t.Fatalf("timeout counter = %d, want %d", v, n)
	}
	if v := snap["sensjoind_active_queries"].(int64); v != 0 {
		t.Fatalf("active-query gauge stuck at %d after timeouts", v)
	}
}

// Shared (grouped) continuous queries hit the same deadline: every
// member gets the timeout error, none hangs.
func TestSharedRoundTimeout(t *testing.T) {
	s, reg := startTestServer(t, Config{QueryTimeout: time.Nanosecond})
	c, err := client.Dial(s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	src := `SELECT A.temp FROM Sensors A, Sensors B WHERE A.temp = B.temp SAMPLE PERIOD 30`
	st, err := c.Stream(src, client.Options{Rounds: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	_, err = st.Next()
	var se *client.ServerError
	if !errors.As(err, &se) || se.Code != "timeout" {
		t.Fatalf("got %v, want ServerError code %q", err, "timeout")
	}
	if v := reg.Snapshot()["sensjoind_query_timeouts_total"].(int64); v == 0 {
		t.Fatal("timeout counter not incremented for shared round")
	}
}

// A generous deadline must not disturb normal execution.
func TestQueryTimeoutGenerousDeadlinePasses(t *testing.T) {
	s, _ := startTestServer(t, Config{QueryTimeout: time.Minute})
	c, err := client.Dial(s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	tb, err := c.Query(testQueries[0])
	if err != nil {
		t.Fatal(err)
	}
	if d := tabledigest.Diff(clientTable(tb), reference(t, testQueries[0], 0)); d != "" {
		t.Fatalf("bounded execution changed the result: %s", d)
	}
}
