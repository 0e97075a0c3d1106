package server

import (
	"errors"
	"fmt"
	"log/slog"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"sensjoin/internal/core"
	"sensjoin/internal/metrics"
	"sensjoin/internal/proto"
	"sensjoin/internal/tabledigest"
	"sensjoin/pkg/client"
)

const (
	testNodes = 100
	testSeed  = 3
)

// testLogWriter sends the server's log lines to the test's log.
type testLogWriter struct{ t *testing.T }

func (w testLogWriter) Write(p []byte) (int, error) {
	w.t.Log(strings.TrimRight(string(p), "\n"))
	return len(p), nil
}

// startTestServer runs an in-process sensjoind on a free port.
func startTestServer(t *testing.T, cfg Config) (*Server, *metrics.Registry) {
	t.Helper()
	reg := metrics.New()
	cfg.Nodes = testNodes
	cfg.Seed = testSeed
	cfg.Registry = reg
	cfg.Logger = slog.New(slog.NewTextHandler(testLogWriter{t}, nil))
	if cfg.BatchWindow == 0 {
		cfg.BatchWindow = 10 * time.Millisecond
	}
	s, err := Listen("127.0.0.1:0", cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s, reg
}

// clientTable is a table a client received, as the comparisons see it.
func clientTable(tb *client.Table) tabledigest.Table[[]float64] {
	return tabledigest.Table[[]float64]{Columns: tb.Columns, Rows: tb.Rows,
		Contributing: tb.Contributing, Members: tb.Members, Complete: tb.Complete}
}

// reference executes src directly through the library at time t.
func reference(t *testing.T, src string, at float64) tabledigest.Table[core.Row] {
	t.Helper()
	r, err := core.NewRunner(core.SetupConfig{Nodes: testNodes, Seed: testSeed})
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.Run(src, core.NewSENSJoin(), at)
	if err != nil {
		t.Fatal(err)
	}
	return res.Table()
}

var testQueries = []string{
	`SELECT A.temp, B.hum FROM Sensors A, Sensors B WHERE A.temp - B.temp > 5.0 ONCE`,
	`SELECT A.temp FROM Sensors A, Sensors B WHERE A.temp = B.temp AND A.hum < 70 ONCE`,
	`SELECT MIN(distance(A.x, A.y, B.x, B.y)) FROM Sensors A, Sensors B WHERE A.temp - B.temp > 6.0 ONCE`,
	`SELECT * FROM Sensors A, Sensors B WHERE A.temp - B.temp > 7.0 AND A.pres < 1015 ONCE`,
}

// The daemon must return result tables byte-identical to direct library
// execution.
func TestServerMatchesDirect(t *testing.T) {
	s, _ := startTestServer(t, Config{})
	c, err := client.Dial(s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for _, src := range testQueries {
		tb, err := c.Query(src)
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		if d := tabledigest.Diff(clientTable(tb), reference(t, src, 0)); d != "" {
			t.Fatalf("table differs from direct execution for %s: server vs direct: %s", src, d)
		}
	}
}

// Many concurrent sessions mixing one-shot and continuous queries; run
// with -race. Every result must match direct execution and the session
// gauge must return to zero.
func TestServerConcurrentSessions(t *testing.T) {
	s, reg := startTestServer(t, Config{})
	wantOnce := make([]tabledigest.Table[core.Row], len(testQueries))
	for i, src := range testQueries {
		wantOnce[i] = reference(t, src, 0)
	}
	contSrc := `SELECT A.temp FROM Sensors A, Sensors B WHERE A.temp = B.temp SAMPLE PERIOD 30`

	const sessions = 8
	var wg sync.WaitGroup
	errs := make([]error, sessions)
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, err := client.Dial(s.Addr().String())
			if err != nil {
				errs[i] = err
				return
			}
			defer c.Close()
			for k, src := range testQueries {
				tb, err := c.Query(src)
				if err != nil {
					errs[i] = fmt.Errorf("session %d: %s: %w", i, src, err)
					return
				}
				if d := tabledigest.Diff(clientTable(tb), wantOnce[k]); d != "" {
					errs[i] = fmt.Errorf("session %d: table differs for %s: %s", i, src, d)
					return
				}
			}
			tables, err := streamAll(c, contSrc, 3, 0)
			if err != nil {
				errs[i] = fmt.Errorf("session %d: continuous: %w", i, err)
				return
			}
			for e, tb := range tables {
				if tb.Epoch != e {
					errs[i] = fmt.Errorf("session %d: epoch %d out of order (want %d)", i, tb.Epoch, e)
					return
				}
			}
			if len(tables) != 3 {
				errs[i] = fmt.Errorf("session %d: got %d epochs, want 3", i, len(tables))
			}
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for reg.Snapshot()["sensjoind_sessions"] != any(int64(0)) {
		if time.Now().After(deadline) {
			t.Fatalf("session gauge stuck at %v", reg.Snapshot()["sensjoind_sessions"])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// Same canonical shape with different literals must produce distinct,
// correct tables — and repeated spellings must hit the prepared cache.
func TestServerPreparedCache(t *testing.T) {
	s, reg := startTestServer(t, Config{})
	c, err := client.Dial(s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	q5 := `SELECT A.temp FROM Sensors A, Sensors B WHERE A.temp - B.temp > 5.0 ONCE`
	q7 := `SELECT A.temp FROM Sensors A, Sensors B WHERE A.temp - B.temp > 7.0 ONCE`
	t5, err := c.Query(q5)
	if err != nil {
		t.Fatal(err)
	}
	t7, err := c.Query(q7)
	if err != nil {
		t.Fatal(err)
	}
	if t5.CacheHit || t7.CacheHit {
		t.Fatal("first submission of each literal variant must miss the cache")
	}
	for src, tb := range map[string]*client.Table{q5: t5, q7: t7} {
		if d := tabledigest.Diff(clientTable(tb), reference(t, src, 0)); d != "" {
			t.Fatalf("cached-shape table differs from direct execution for %s: %s", src, d)
		}
	}
	if len(t5.Rows) == len(t7.Rows) {
		t.Logf("note: both thresholds yield %d rows (legal, but weakens the test)", len(t5.Rows))
	}

	// Exact resubmission: src-keyed hit.
	again, err := c.Query(q5)
	if err != nil {
		t.Fatal(err)
	}
	if !again.CacheHit {
		t.Fatal("resubmitted query text must hit the prepared cache")
	}
	// Different spelling, same canonical query: fingerprint-keyed hit.
	flipped, err := c.Query(`SELECT X.temp FROM Sensors X, Sensors Y WHERE 5.0 < X.temp - Y.temp ONCE`)
	if err != nil {
		t.Fatal(err)
	}
	if !flipped.CacheHit {
		t.Fatal("canonically equal spelling must hit the prepared cache")
	}
	if d := tabledigest.Diff(clientTable(flipped), clientTable(t5)); d != "" {
		t.Fatalf("canonically equal spelling computed a different table: %s", d)
	}

	snap := reg.Snapshot()
	if hits := snap["sensjoind_prepared_cache_hits_total"].(int64); hits < 2 {
		t.Fatalf("cache hits = %d, want >= 2", hits)
	}
	if misses := snap["sensjoind_prepared_cache_misses_total"].(int64); misses != 2 {
		t.Fatalf("cache misses = %d, want exactly 2 (two distinct canonical shapes)", misses)
	}
}

// A query whose quantization grid cannot be built — here a join of nine
// relations, one more than a key's flags can name — fails in Prepare: the
// daemon answers it with an Error frame carrying the grid's message, and
// the session goes on serving.
func TestServerReportsGridErrorAtPrepare(t *testing.T) {
	s, _ := startTestServer(t, Config{})
	c, err := client.Dial(s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const nine = `SELECT A.temp FROM Sensors A, Sensors B, Sensors C, Sensors D, Sensors E, Sensors F, Sensors G, Sensors H, Sensors I
		WHERE A.temp = B.temp AND B.temp = C.temp AND C.temp = D.temp AND D.temp = E.temp AND E.temp = F.temp
		AND F.temp = G.temp AND G.temp = H.temp AND H.temp = I.temp ONCE`
	_, err = c.Query(nine)
	var se *client.ServerError
	if !errors.As(err, &se) || se.Code != proto.CodeParse || se.Msg != "zorder: flag bits 9 out of range [1, 8]" {
		t.Fatalf("nine-way join: %v, want a %q Error frame with the grid's message", err, proto.CodeParse)
	}
	if _, err := c.Query(testQueries[0]); err != nil {
		t.Fatalf("the session after the refused query: %v", err)
	}
}

// A query naming an attribute its relation does not define, and a
// query at a snapshot time that is no time, are refused with a parse
// Error frame, and the session goes on serving.
func TestServerRefusesUnboundQueries(t *testing.T) {
	s, _ := startTestServer(t, Config{})
	c, err := client.Dial(s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const undefined = `SELECT A.a0, B.zz FROM Sensors A, Sensors B WHERE A.temp > B.temp ONCE`
	cases := []struct {
		src  string
		at   float64
		want string
	}{
		{undefined, 0, `relation: Sensors has no attribute "a0"`},
		{testQueries[0], math.NaN(), "not finite"},
		{testQueries[0], math.Inf(1), "not finite"},
		{testQueries[0], math.Inf(-1), "not finite"},
	}
	for _, tc := range cases {
		_, err := c.QueryOpts(tc.src, client.Options{At: tc.at})
		var se *client.ServerError
		if !errors.As(err, &se) || se.Code != proto.CodeParse || !strings.Contains(se.Msg, tc.want) {
			t.Errorf("%q at %v: %v, want a %q Error frame saying %q", tc.src, tc.at, err, proto.CodeParse, tc.want)
		}
	}
	if _, err := c.Query(testQueries[0]); err != nil {
		t.Fatalf("the session after the refused queries: %v", err)
	}
}

// A snapshot time far out — 1e15 s, where the fields' drifting bump
// centres lie billions of area widths away — is a time: the query answers,
// with the table the library computes at that time.
func TestServerAnswersFarInTime(t *testing.T) {
	s, _ := startTestServer(t, Config{})
	c, err := client.Dial(s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const at = 1e15
	tb, err := c.QueryOpts(testQueries[0], client.Options{At: at})
	if err != nil {
		t.Fatalf("query at t = %g: %v", at, err)
	}
	if d := tabledigest.Diff(clientTable(tb), reference(t, testQueries[0], at)); d != "" {
		t.Errorf("query at t = %g differs from the library's table: %s", at, d)
	}
}

// Compatible continuous queries submitted within one batch window must
// share execution and still each get their own correct table stream.
func TestServerSharedContinuous(t *testing.T) {
	s, reg := startTestServer(t, Config{BatchWindow: 150 * time.Millisecond})
	src := `SELECT A.temp FROM Sensors A, Sensors B WHERE A.temp = B.temp SAMPLE PERIOD 30`

	const n = 3
	var wg sync.WaitGroup
	tables := make([][]*client.Table, n)
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, err := client.Dial(s.Addr().String())
			if err != nil {
				errs[i] = err
				return
			}
			defer c.Close()
			tables[i], errs[i] = streamAll(c, src, 2, 0)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		if len(tables[i]) != 2 {
			t.Fatalf("client %d: got %d epochs, want 2", i, len(tables[i]))
		}
		if !tables[i][0].Shared || tables[i][0].ClusterSize != n {
			t.Fatalf("client %d: Shared=%t ClusterSize=%d, want shared cluster of %d",
				i, tables[i][0].Shared, tables[i][0].ClusterSize, n)
		}
		for e := 0; e < 2; e++ {
			if d := tabledigest.Diff(clientTable(tables[i][e]), clientTable(tables[0][e])); d != "" {
				t.Fatalf("client %d epoch %d: table differs across cluster members: %s", i, e, d)
			}
		}
	}
	if v := reg.Snapshot()["sensjoind_shared_queries_total"].(int64); v < n {
		t.Fatalf("sensjoind_shared_queries_total = %d, want >= %d", v, n)
	}
}

// Submissions beyond the admission bound must be rejected with an
// explicit over-capacity error, not queued without bound.
func TestServerOverCapacity(t *testing.T) {
	s, reg := startTestServer(t, Config{MaxConcurrent: 1, MaxQueue: 1})
	c, err := client.Dial(s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// Pipeline the whole flood over one session: the server reads the
	// Query frames far faster than it can execute them, so admission
	// must start rejecting once 2 (MaxConcurrent+MaxQueue) are in.
	const flood = 24
	var wg sync.WaitGroup
	var mu sync.Mutex
	rejected, succeeded := 0, 0
	for i := 0; i < flood; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := c.Query(testQueries[0])
			mu.Lock()
			defer mu.Unlock()
			if se, ok := err.(*client.ServerError); ok && se.Code == "over-capacity" {
				rejected++
			} else if err == nil {
				succeeded++
			}
		}()
	}
	wg.Wait()
	if rejected == 0 {
		t.Fatal("a 24-query flood against capacity 2 produced no over-capacity rejection")
	}
	if succeeded == 0 {
		t.Fatal("admission control rejected everything; admitted queries must still run")
	}
	if v := reg.Snapshot()["sensjoind_rejected_total"].(int64); int(v) < rejected {
		t.Fatalf("sensjoind_rejected_total = %d, want >= %d", v, rejected)
	}
}

// Close must drain promptly and leave no session behind.
func TestServerGracefulClose(t *testing.T) {
	s, reg := startTestServer(t, Config{})
	c, err := client.Dial(s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Query(testQueries[0]); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if err := s.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if d := time.Since(start); d > 3*time.Second {
		t.Fatalf("close took %v with no in-flight work", d)
	}
	if v := reg.Snapshot()["sensjoind_sessions"].(int64); v != 0 {
		t.Fatalf("sessions gauge = %d after close", v)
	}
	if _, err := c.Query(testQueries[1]); err == nil {
		t.Fatal("query against a closed server succeeded")
	}
}

// A query's simulated response time must not depend on what its pooled
// runner ran before: with one execution slot every query runs on the one
// pooled runner, and the same query asked first, and again after others,
// reports bit-equal response times — equal to a new runner's. The idle
// runner is back at time zero with empty Stats instead of accumulating
// them for the life of the daemon.
func TestServerPooledRunnerIsReset(t *testing.T) {
	s, _ := startTestServer(t, Config{MaxConcurrent: 1})
	c, err := client.Dial(s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ask := func(src string) uint64 {
		t.Helper()
		tb, err := c.Query(src)
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		return math.Float64bits(tb.ResponseTime)
	}
	first := ask(testQueries[0])
	for _, src := range testQueries[1:] {
		ask(src)
	}
	if again := ask(testQueries[0]); again != first {
		t.Errorf("ResponseTime %x after other queries, %x before", again, first)
	}
	fresh, err := core.NewRunner(core.SetupConfig{Nodes: testNodes, Seed: testSeed})
	if err != nil {
		t.Fatal(err)
	}
	res, err := fresh.Run(testQueries[0], core.NewSENSJoin(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if want := math.Float64bits(res.ResponseTime); first != want {
		t.Errorf("ResponseTime %x through the daemon, %x on a new runner", first, want)
	}

	pl, err := s.poolFor(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	r, err := pl.runners.Get()
	if err != nil {
		t.Fatal(err)
	}
	defer pl.runners.Put(r)
	if r.Sim.Steps() != 0 || r.Sim.Now() != 0 || r.Stats.TotalTx() != 0 {
		t.Errorf("idle pooled runner: %d events, clock %g, %d packets; want a reset runner",
			r.Sim.Steps(), r.Sim.Now(), r.Stats.TotalTx())
	}
}

// slowWriter stands for a log sink that takes its time.
type slowWriter struct{}

func (slowWriter) Write(p []byte) (int, error) {
	time.Sleep(2 * time.Millisecond)
	return len(p), nil
}

// A closed loop of exactly MaxConcurrent+MaxQueue callers is never
// refused: a query gives its admission slot back before its terminal
// frame goes out, so the caller's next query — submitted the moment it
// reads Done — cannot find its own predecessor still counted, however
// long the server spends on that one afterwards (here: a slow debug log).
func TestServerClosedLoopAtTheAdmissionLimit(t *testing.T) {
	reg := metrics.New()
	s, err := Listen("127.0.0.1:0", Config{
		Nodes: testNodes, Seed: testSeed, Registry: reg, MaxConcurrent: 1, MaxQueue: 1,
		Logger: slog.New(slog.NewTextHandler(slowWriter{}, &slog.HandlerOptions{Level: slog.LevelDebug})),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	c, err := client.Dial(s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const callers, each = 2, 50
	var wg sync.WaitGroup
	errs := make([]error, callers)
	for k := 0; k < callers; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			for i := 0; i < each && errs[k] == nil; i++ {
				_, errs[k] = c.Query(testQueries[0])
			}
		}(k)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatalf("%d callers against an admission limit of 2: %v", callers, err)
		}
	}
	if v := reg.Snapshot()["sensjoind_rejected_total"].(int64); v != 0 {
		t.Fatalf("sensjoind_rejected_total = %d, want 0", v)
	}
}
