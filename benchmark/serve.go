package main

import (
	"fmt"
	"io"
	"log/slog"
	"os"
	"sync"
	"time"

	"sensjoin/internal/core"
	"sensjoin/internal/metrics"
	"sensjoin/internal/server"
	"sensjoin/pkg/client"
)

// serveSpec is what distinguishes the two serving workloads. Both are
// closed loops — pkg/client callers wait for their reply — at a fixed
// concurrency of conns × callers.
type serveSpec struct {
	name string
	// conns client connections, each shared by callers pipelined
	// goroutines.
	conns, callers int
	// slice is the width of the throughput slices (see sliceRate).
	slice time.Duration
	// texts builds the distinct query texts with their oracle tables.
	texts func(r *core.Runner, o options) ([]text, error)
	// warmOps is how many sequential operations set-up answers before
	// the server counts as ready: every distinct text once for
	// serve_point (cold prepared-cache misses), 16 for serve_rows.
	warmOps func(texts int) int
}

var servePoint = serveSpec{
	name: "serve_point", conns: 2, callers: 4, slice: time.Second,
	texts:   func(r *core.Runner, o options) ([]text, error) { return pointTexts(r, o.seed, o.sizes.servePointTexts) },
	warmOps: func(texts int) int { return texts },
}

var serveRows = serveSpec{
	name: "serve_rows", conns: 2, callers: 2, slice: 2 * time.Second,
	texts:   func(r *core.Runner, o options) ([]text, error) { return rowsTexts(r, o.seed) },
	warmOps: func(int) int { return 16 },
}

// serveDeployment is the deployment seed of both serving workloads.
// It is fixed, and -seed drives the literals instead, because the work
// one query costs follows the deployment: across deployment seeds 1-10
// allocation per operation spread over 406-451 KB and throughput over
// 1566-1911 ops/s, which would drown a tenth's regression in the choice
// of seed. With one deployment the seeds differ by well under 1%.
const serveDeployment = 42

// flightSize holds every operation of a traced window, so that each
// client latency finds its server-side record by trace ID.
const flightSize = 1 << 17

// daemon is one in-process sensjoind with its client connections.
type daemon struct {
	srv   *server.Server
	reg   *metrics.Registry
	conns []*client.Client
}

func (d *daemon) close() {
	for _, c := range d.conns {
		c.Close()
	}
	d.srv.Close()
}

// check compares one served table with the oracle's.
func check(tb *client.Table, ref tableDigest) bool {
	return ref.equal(tableDigest{
		cols: tb.Columns, rows: len(tb.Rows), complete: tb.Complete,
		contributing: tb.Contributing, members: tb.Members, hash: hashRows(tb.Rows),
	})
}

// setUp is one cold set-up: the deployment cache is dropped, the
// daemon listens with the default configuration, the clients dial and
// the warm-up operations are answered one after the other. It returns
// the failures among the warm-up operations.
func (s serveSpec) setUp(o options, texts []text) (d *daemon, ops, failed int, err error) {
	core.ResetSetupCache()
	cfg := server.Config{
		Nodes: o.sizes.serveNodes, Seed: serveDeployment,
		Logger: slog.New(slog.NewTextHandler(io.Discard, nil)),
	}
	d = &daemon{}
	if o.traced() {
		d.reg = metrics.New()
		cfg.Registry = d.reg
		cfg.FlightSize = flightSize
	}
	if d.srv, err = server.Listen("127.0.0.1:0", cfg); err != nil {
		return nil, 0, 0, err
	}
	for i := 0; i < s.conns; i++ {
		c, err := client.Dial(d.srv.Addr().String())
		if err != nil {
			d.close()
			return nil, 0, 0, err
		}
		d.conns = append(d.conns, c)
	}
	ops = s.warmOps(len(texts))
	for i := 0; i < ops; i++ {
		q := texts[i%len(texts)]
		tb, err := d.conns[i%s.conns].Query(q.src)
		if err != nil || !check(tb, q.ref) {
			failed++
		}
	}
	return d, ops, failed, nil
}

// sample is one operation as its caller saw it, in nanoseconds since
// the load started.
type sample struct {
	start, end time.Duration
	text       int
	ok         bool
	traceID    string
}

// load drives the closed loop from every caller until stop, cycling
// deterministically through the texts: caller k of C takes texts k,
// k+C, k+2C, ... With a recorder, operations that start in an odd
// slice of the window [from, stop) carry a trace ID and a client.op
// span; the even slices stay untraced for comparison.
func (s serveSpec) load(d *daemon, texts []text, t0 time.Time, from, stop time.Duration, rec *recorder, parent int) [][]sample {
	total := s.conns * s.callers
	out := make([][]sample, total)
	var wg sync.WaitGroup
	for k := 0; k < total; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			c := d.conns[k%s.conns]
			buf := make([]sample, 0, 1<<14)
			for i := k; ; i += total {
				start := time.Since(t0)
				if start >= stop {
					break
				}
				sm := sample{start: start, text: i % len(texts)}
				var opts client.Options
				id := -1
				if rec != nil && start >= from && (start-from)/s.slice%2 == 1 {
					sm.traceID = fmt.Sprintf("b%d.%d", k, i)
					opts.TraceID = sm.traceID
					id = rec.begin("client.op", parent, int64(i))
				}
				tb, err := c.QueryOpts(texts[sm.text].src, opts)
				sm.end = time.Since(t0)
				rec.end(id)
				sm.ok = err == nil && check(tb, texts[sm.text].ref)
				buf = append(buf, sm)
			}
			out[k] = buf
		}(k)
	}
	wg.Wait()
	return out
}

// windowStats are the end-to-end figures of one window of the load.
type windowStats struct {
	ops       int
	opsPerS   float64
	latencies []float64 // ms, every operation completed in the window
	slices    []float64 // completions per slice
}

// window extracts the operations that completed in [from, to).
func (s serveSpec) window(samples [][]sample, from, to time.Duration) windowStats {
	var done []time.Duration
	var w windowStats
	for _, caller := range samples {
		for _, sm := range caller {
			if sm.end >= from && sm.end < to {
				done = append(done, sm.end-from)
				w.latencies = append(w.latencies, float64(sm.end-sm.start)/1e6)
			}
		}
	}
	w.ops = len(done)
	w.slices = sliceCounts(done, to-from, s.slice)
	w.opsPerS = sliceRate(done, to-from, s.slice)
	return w
}

// mark is the state of the process-wide counters at one boundary of
// the load.
type mark struct {
	use usage
	reg map[string]any // the daemon's registry; empty unless traced
}

func runServe(s serveSpec, o options) (*report, error) {
	rep := &report{values: map[string]float64{}}
	r, err := core.NewRunner(core.SetupConfig{Nodes: o.sizes.serveNodes, Seed: serveDeployment})
	if err != nil {
		return nil, err
	}
	texts, err := s.texts(r, o)
	if err != nil {
		return nil, err
	}

	// setup_s: the median of coldSetups cold set-ups. The last daemon is
	// the one the window runs against, with every text's plan cached.
	var d *daemon
	var setups []float64
	for i := 0; i < coldSetups; i++ {
		if d != nil {
			d.close()
		}
		t0 := time.Now()
		var ops, failed int
		if d, ops, failed, err = s.setUp(o, texts); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		rep.attempted += ops
		rep.failed += failed
	}
	defer d.close()
	rep.set("setup_s", median(setups))

	// One continuous load covers the ramp and the window, so the CPU
	// the window sees is already at the speed sustained load gets. The
	// process-wide counters are read at both ends of the window while
	// the load runs.
	hwmReset := resetPeakRSS()
	ramp, end := o.sizes.ramp, o.sizes.ramp+o.seconds
	root := o.rec.begin("window", -1, 0)
	t0 := time.Now()
	var before, after mark
	var marked sync.WaitGroup
	marked.Add(1)
	go func() {
		defer marked.Done()
		time.Sleep(time.Until(t0.Add(ramp)))
		before = mark{readUsage(), d.reg.Snapshot()}
		time.Sleep(time.Until(t0.Add(end)))
		after = mark{readUsage(), d.reg.Snapshot()}
	}()
	samples := s.load(d, texts, t0, ramp, end, o.rec, root)
	marked.Wait()
	o.rec.end(root)
	peak := peakRSSMB()
	if !hwmReset {
		fmt.Fprintln(os.Stderr, "peak_rss_mb: /proc/self/clear_refs refused the reset; reporting the whole-run high-water mark")
	}

	for _, caller := range samples {
		for _, sm := range caller {
			rep.attempted++
			if !sm.ok {
				rep.failed++
			}
		}
	}
	w := s.window(samples, ramp, end)
	if w.ops == 0 {
		return nil, fmt.Errorf("%s: no operation completed in the window", s.name)
	}
	use := after.use.minus(before.use)
	if !o.traced() {
		rep.set("ops_per_s", w.opsPerS)
		rep.set("op_p50_ms", median(w.latencies))
		rep.set("alloc_kb_per_op", float64(use.allocBytes)/1024/float64(w.ops))
		rep.set("peak_rss_mb", peak)
		pct, tail := tailPercentile(w.latencies)
		fmt.Fprintf(os.Stderr, "window: %d ops, p%v = %.3f ms (not gated), per slice %v\n", w.ops, pct, tail, w.slices)
		return rep, nil
	}

	// Tracing was on in every other slice: the two halves saw the same
	// host, so their ratio is the tracing overhead and little else.
	var plain, traced []float64
	for i, n := range w.slices {
		if i%2 == 0 {
			plain = append(plain, n)
		} else {
			traced = append(traced, n)
		}
	}
	if median(plain) > 0 {
		rep.set("harness.trace_overhead_share", 1-median(traced)/median(plain))
	}
	totalMS := s.clientLayer(rep, d, samples, w)
	serverLayer(rep, before.reg, after.reg, (end - ramp).Seconds(), totalMS)
	runtimeLayer(rep, use, w.ops)
	if err := replayLayers(rep, o, r, texts); err != nil {
		return nil, err
	}
	return rep, nil
}
