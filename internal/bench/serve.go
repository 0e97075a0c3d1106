package bench

import (
	"fmt"
	"io"
	"log/slog"
	"runtime"
	"sort"
	"sync"
	"time"

	"sensjoin/internal/core"
	"sensjoin/internal/metrics"
	"sensjoin/internal/server"
	"sensjoin/internal/tabledigest"
	"sensjoin/pkg/client"
)

// X9 (serving): sustained query throughput through sensjoind. The
// experiment starts an in-process daemon, hammers it from many
// concurrent client sessions with a small set of repeated query shapes
// (varying only in literals, like a real serving workload), and
// checks every returned table byte-for-byte against direct library
// execution. It reports the sustained QPS and the prepared-cache hit
// rate — the daemon's two headline claims.

// ServeConfig parameterizes X9; zero values select defaults.
type ServeConfig struct {
	// Nodes/Seed describe the deployment (defaults 150 / 5).
	Nodes int
	Seed  int64
	// Clients is the concurrent session count (default 2*GOMAXPROCS).
	Clients int
	// Shapes is the number of distinct query shapes cycled through
	// (default 4).
	Shapes int
	// Duration is the measured load window (default 3s).
	Duration time.Duration
	// TraceSample is the fraction of queries span-sampled for the
	// per-phase latency breakdown (default 0.25; the flight recorder
	// supplies the percentiles).
	TraceSample float64
}

func (c ServeConfig) withDefaults() ServeConfig {
	if c.Nodes <= 0 {
		c.Nodes = 150
	}
	if c.Seed == 0 {
		c.Seed = 5
	}
	if c.Clients <= 0 {
		c.Clients = 2 * runtime.GOMAXPROCS(0)
	}
	if c.Shapes <= 0 {
		c.Shapes = 4
	}
	if c.Duration <= 0 {
		c.Duration = 3 * time.Second
	}
	if c.TraceSample == 0 {
		c.TraceSample = 0.25
	}
	return c
}

// ServeResult is the machine-readable X9 artifact (BENCH_serve.json).
type ServeResult struct {
	Nodes   int
	Seed    int64
	Clients int
	Shapes  int
	// Queries completed within the window, and the wall-clock seconds
	// they took.
	Queries int
	Seconds float64
	QPS     float64
	// Cache counters from the daemon's registry.
	CacheHits    int64
	CacheMisses  int64
	CacheHitRate float64
	// ByteIdentical reports that EVERY returned table matched direct
	// library execution byte for byte (order-normalized).
	ByteIdentical bool
	// Mismatches counts tables that differed (0 when ByteIdentical).
	Mismatches int
	// Rejected counts admission-control rejections (the load loop does
	// not retry, so rejections reduce Queries but never fail the run).
	Rejected int64
	// Traced counts queries whose span tree was sampled; PhaseLatencies
	// summarizes their per-phase simulated protocol seconds.
	Traced         int64
	PhaseLatencies map[string]PhaseQuantiles `json:",omitempty"`
}

// PhaseQuantiles summarizes one protocol phase's simulated latency
// across the sampled queries of a serve-load run.
type PhaseQuantiles struct {
	Count int
	P50   float64
	P95   float64
	P99   float64
}

// Table renders the X9 result in the suite's table format.
func (r *ServeResult) Table() *Table {
	t := &Table{
		ID:     "X9",
		Title:  fmt.Sprintf("serve-load: sustained QPS through sensjoind (%d nodes, seed %d)", r.Nodes, r.Seed),
		Header: []string{"clients", "shapes", "queries", "seconds", "qps", "cache_hit_rate", "byte_identical", "rejected"},
	}
	t.AddRow(fmtInt(int64(r.Clients)), fmtInt(int64(r.Shapes)), fmtInt(int64(r.Queries)),
		fmt.Sprintf("%.2f", r.Seconds), fmt.Sprintf("%.0f", r.QPS), fmt.Sprintf("%.4f", r.CacheHitRate),
		fmt.Sprintf("%t", r.ByteIdentical), fmtInt(r.Rejected))
	phases := make([]string, 0, len(r.PhaseLatencies))
	for ph := range r.PhaseLatencies {
		phases = append(phases, ph)
	}
	sort.Strings(phases)
	for _, ph := range phases {
		q := r.PhaseLatencies[ph]
		t.Note("%s: simulated seconds p50 %.4f, p95 %.4f, p99 %.4f over %d of %d sampled queries",
			ph, q.P50, q.P95, q.P99, q.Count, r.Traced)
	}
	return t
}

// serveShapes builds the workload: one canonical shape per index,
// distinct literals so each is its own cache entry.
func serveShapes(n int) []string {
	out := make([]string, n)
	for i := range out {
		switch i % 4 {
		case 0:
			out[i] = fmt.Sprintf(`SELECT A.temp, B.hum FROM Sensors A, Sensors B WHERE A.temp - B.temp > %.1f ONCE`, 5.0+0.5*float64(i))
		case 1:
			out[i] = fmt.Sprintf(`SELECT A.temp FROM Sensors A, Sensors B WHERE A.temp = B.temp AND A.hum < %.1f ONCE`, 70.0-float64(i))
		case 2:
			out[i] = fmt.Sprintf(`SELECT MIN(distance(A.x, A.y, B.x, B.y)) FROM Sensors A, Sensors B WHERE A.temp - B.temp > %.1f ONCE`, 6.0+0.5*float64(i))
		default:
			out[i] = fmt.Sprintf(`SELECT * FROM Sensors A, Sensors B WHERE A.temp - B.temp > %.1f AND A.pres < 1015 ONCE`, 7.0+0.5*float64(i))
		}
	}
	return out
}

// RunServeLoad measures X9.
func RunServeLoad(cfg ServeConfig) (*ServeResult, error) {
	cfg = cfg.withDefaults()
	shapes := serveShapes(cfg.Shapes)

	// Ground truth: every shape executed directly through the library.
	ref := make(map[string]tabledigest.Digest, len(shapes))
	r, err := privateRunner(cfg.Nodes, cfg.Seed, 0)
	if err != nil {
		return nil, err
	}
	for _, src := range shapes {
		res, err := r.Run(src, core.NewSENSJoin(), 0)
		if err != nil {
			return nil, err
		}
		ref[src] = res.Table().Digest()
	}

	reg := metrics.New()
	srv, err := server.Listen("127.0.0.1:0", server.Config{
		Nodes: cfg.Nodes, Seed: cfg.Seed, Registry: reg,
		// The load loop keeps at most one query in flight per client;
		// admit them all so rejections measure real overload only.
		MaxQueue: cfg.Clients + 1,
		// Span-sample a fraction of queries and keep the whole window
		// in the flight recorder: it supplies PhaseLatencies below.
		TraceSample: cfg.TraceSample,
		FlightSize:  1 << 16,
		Logger:      slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	if err != nil {
		return nil, err
	}
	defer srv.Close()

	var (
		wg         sync.WaitGroup
		mu         sync.Mutex
		queries    int
		mismatches int
		workerErr  error
	)
	start := time.Now()
	deadline := start.Add(cfg.Duration)
	for w := 0; w < cfg.Clients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c, err := client.Dial(srv.Addr().String())
			if err != nil {
				mu.Lock()
				workerErr = err
				mu.Unlock()
				return
			}
			defer c.Close()
			n, bad := 0, 0
			for i := 0; time.Now().Before(deadline); i++ {
				src := shapes[(w+i)%len(shapes)]
				tb, err := c.Query(src)
				if err != nil {
					if se, ok := err.(*client.ServerError); ok && se.Code == "over-capacity" {
						continue // counted server-side; do not retry-spin
					}
					mu.Lock()
					workerErr = fmt.Errorf("client %d: %w", w, err)
					mu.Unlock()
					return
				}
				n++
				got := tabledigest.Table[[]float64]{Columns: tb.Columns, Rows: tb.Rows,
					Contributing: tb.Contributing, Members: tb.Members, Complete: tb.Complete}
				if got.Digest() != ref[src] {
					bad++
				}
			}
			mu.Lock()
			queries += n
			mismatches += bad
			mu.Unlock()
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start).Seconds()
	if workerErr != nil {
		return nil, workerErr
	}

	snap := reg.Snapshot()
	out := &ServeResult{
		Nodes: cfg.Nodes, Seed: cfg.Seed, Clients: cfg.Clients, Shapes: cfg.Shapes,
		Queries: queries, Seconds: elapsed,
		CacheHits:     snap["sensjoind_prepared_cache_hits_total"].(int64),
		CacheMisses:   snap["sensjoind_prepared_cache_misses_total"].(int64),
		Rejected:      snap["sensjoind_rejected_total"].(int64),
		Mismatches:    mismatches,
		ByteIdentical: mismatches == 0,
	}
	if elapsed > 0 {
		out.QPS = float64(queries) / elapsed
	}
	if total := out.CacheHits + out.CacheMisses; total > 0 {
		out.CacheHitRate = float64(out.CacheHits) / float64(total)
	}
	if v, ok := snap["sensjoind_traced_queries_total"]; ok {
		out.Traced = v.(int64)
	}
	out.PhaseLatencies = phaseQuantiles(srv.Flight().Records())
	return out, nil
}

// phaseQuantiles folds the flight recorder's sampled records into
// per-phase latency percentiles.
func phaseQuantiles(records []server.QueryRecord) map[string]PhaseQuantiles {
	byPhase := map[string][]float64{}
	for _, rec := range records {
		for _, p := range rec.Phases {
			byPhase[p.Phase] = append(byPhase[p.Phase], p.Seconds)
		}
	}
	if len(byPhase) == 0 {
		return nil
	}
	out := make(map[string]PhaseQuantiles, len(byPhase))
	for ph, xs := range byPhase {
		sort.Float64s(xs)
		out[ph] = PhaseQuantiles{
			Count: len(xs),
			P50:   quantile(xs, 0.50),
			P95:   quantile(xs, 0.95),
			P99:   quantile(xs, 0.99),
		}
	}
	return out
}

// quantile reads the q-quantile (nearest-rank) from an ascending slice.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)-1))
	return sorted[i]
}
