package main

import (
	"bytes"
	"errors"
	"io"
	"time"

	"sensjoin/internal/core"
	"sensjoin/internal/proto"
	"sensjoin/internal/query"
)

// suiteIDs are the experiment identifiers of one bench.All pass, in
// All's order.
var suiteIDs = []string{"E1a", "E1b", "E2a", "E2b", "E3", "E4", "E5", "E6", "E7", "E8", "E9", "A1", "A2", "X1", "X2", "X3", "X4", "X5", "X6"}

// perLayer lists the metrics of the traced run. A metric reads 0 on a
// workload it does not apply to. README.md says which end-to-end
// metric each is predicted to move.
var perLayer = func() []metricDef {
	defs := []metricDef{
		// pkg/client, as the callers see it.
		{"client.op_p90_ms", "ms", "lower"},
		{"client.op_tail_ms", "ms", "lower"},
		{"client.op_tail_pct", "%", "higher"},
		{"client.overhead_ms_p50", "ms", "lower"},
		// internal/proto, replayed on the workload's own tables.
		{"proto.bytes_per_op", "B", "lower"},
		{"proto.frames_per_op", "count", "lower"},
		{"proto.encode_ns_per_row", "ns", "lower"},
		{"proto.decode_ns_per_row", "ns", "lower"},
		{"proto.encode_us_per_op", "us", "lower"},
		{"proto.decode_us_per_op", "us", "lower"},
		// internal/server, from its flight recorder and registry.
		{"server.total_ms_p50", "ms", "lower"},
		{"server.exec_ms_mean", "ms", "lower"},
		{"server.wait_emit_ms_mean", "ms", "lower"},
		{"server.exec_slot_busy_share", "fraction", "higher"},
		{"server.cache_hit_rate", "fraction", "higher"},
		{"server.rejected_share", "fraction", "lower"},
		// internal/query and internal/core on the distinct texts.
		{"query.parse_us", "us", "lower"},
		{"core.prepare_us", "us", "lower"},
		{"core.run_ms_per_op", "ms", "lower"},
		{"netsim.events_per_op", "count", "lower"},
		{"stats.tx_packets_per_op", "count", "lower"},
		{"core.sim_response_s_p50", "s", "lower"},
		// internal/bench (paper_suite).
		{"bench.fanout_speedup", "x", "higher"},
		{"core.runs_per_pass", "count", "lower"},
		{"netsim.events_per_pass", "count", "lower"},
		{"netsim.tx_packets_per_pass", "count", "lower"},
		{"netsim.events_per_s", "1/s", "higher"},
		// The stages of one sim_scale pass.
		{"topology.generate_ms", "ms", "lower"},
		{"field.env_ms", "ms", "lower"},
		{"routing.build_tree_ms", "ms", "lower"},
		{"core.new_runner_ms", "ms", "lower"},
		{"workload.calibrate_ms", "ms", "lower"},
		{"core.external_run_ms", "ms", "lower"},
		{"core.sens_run_ms", "ms", "lower"},
		{"netsim.events_per_s.external", "1/s", "higher"},
		{"netsim.events_per_s.sens", "1/s", "higher"},
		{"netsim.shard_speedup", "x", "higher"},
		{"stats.radio_bytes_per_node.external", "B", "lower"},
		{"stats.radio_bytes_per_node.sens", "B", "lower"},
		{"core.sim_response_s.sens", "s", "lower"},
		// The Go runtime, whole process, every workload.
		{"runtime.cpu_ms_per_op", "ms", "lower"},
		{"runtime.allocs_per_op", "count", "lower"},
		{"runtime.gc_cpu_share", "fraction", "lower"},
		// The benchmark itself.
		{"harness.trace_overhead_share", "fraction", "lower"},
	}
	for _, id := range suiteIDs {
		defs = append(defs, metricDef{"bench.exp_ms." + id, "ms", "lower"})
	}
	return defs
}()

// num reads a metrics.Registry snapshot value.
func num(v any) float64 {
	switch x := v.(type) {
	case int64:
		return float64(x)
	case uint64:
		return float64(x)
	case float64:
		return x
	}
	return 0
}

// runtimeLayer reports the whole process's CPU, allocation count and
// garbage-collection share per operation over a window.
func runtimeLayer(rep *report, u usage, ops int) {
	rep.set("runtime.cpu_ms_per_op", u.cpu*1e3/float64(ops))
	rep.set("runtime.allocs_per_op", float64(u.mallocs)/float64(ops))
	if u.cpu > 0 {
		rep.set("runtime.gc_cpu_share", u.gcCPU/u.cpu)
	}
}

// clientLayer reports what the callers saw over the window, and what
// the server's flight recorder says about the traced operations among
// them (matched by trace ID). It returns the flight recorder's mean
// TotalSeconds over those, in milliseconds.
func (s serveSpec) clientLayer(rep *report, d *daemon, samples [][]sample, w windowStats) (serverTotalMS float64) {
	rep.set("client.op_p90_ms", quantileOf(w.latencies, 0.9))
	pct, tail := tailPercentile(w.latencies)
	rep.set("client.op_tail_ms", tail)
	rep.set("client.op_tail_pct", pct)

	server := make(map[string]float64)
	for _, rec := range d.srv.Flight().Records() {
		server[rec.TraceID] = rec.TotalSeconds * 1e3
	}
	var overhead, totals []float64
	for _, caller := range samples {
		for _, sm := range caller {
			if ms, ok := server[sm.traceID]; ok {
				overhead = append(overhead, float64(sm.end-sm.start)/1e6-ms)
				totals = append(totals, ms)
			}
		}
	}
	rep.set("client.overhead_ms_p50", median(overhead))
	rep.set("server.total_ms_p50", median(totals))
	return mean(totals)
}

// serverLayer reports the daemon's own counters over the traced window;
// totalMS is the flight recorder's mean TotalSeconds over the same
// operations.
func serverLayer(rep *report, before, after map[string]any, seconds, totalMS float64) {
	delta := func(name string) float64 { return num(after[name]) - num(before[name]) }
	execSum, execN := delta("sensjoind_query_seconds_sum"), delta("sensjoind_query_seconds_count")
	if execN > 0 {
		rep.set("server.exec_ms_mean", execSum/execN*1e3)
		rep.set("server.wait_emit_ms_mean", totalMS-execSum/execN*1e3)
	}
	rep.set("server.exec_slot_busy_share", execSum/(seconds*2)) // MaxConcurrent defaults to GOMAXPROCS = 2
	hits, misses := delta("sensjoind_prepared_cache_hits_total"), delta("sensjoind_prepared_cache_misses_total")
	if hits+misses > 0 {
		rep.set("server.cache_hit_rate", hits/(hits+misses))
	}
	admitted, rejected := delta("sensjoind_queries_total"), delta("sensjoind_rejected_total")
	if admitted+rejected > 0 {
		rep.set("server.rejected_share", rejected/(admitted+rejected))
	}
}

// replay repeats fn over the indices 0..n-1 in whole cycles, inside
// one span, until at least d has passed, and returns the mean time of
// one call and the first error.
func replay(rec *recorder, name string, parent int, d time.Duration, n int, fn func(i int) error) (time.Duration, error) {
	var first error
	calls := 0
	total := rec.timed(name, parent, 0, func() {
		for t0 := time.Now(); time.Since(t0) < d && first == nil; calls += n {
			for i := 0; i < n && first == nil; i++ {
				first = fn(i)
			}
		}
	})
	return total / time.Duration(calls), first
}

// frames renders one oracle table as the frames sensjoind sends for
// it: Header, Rows in 512-row chunks, EpochEnd, Done.
func frames(q text, emit func(kind byte, msg any)) {
	res := q.res
	emit(proto.KindHeader, proto.Header{ID: 1, Columns: res.Columns, CacheHit: true, ClusterSize: 1, TraceID: "q-1-1-1"})
	for i := 0; i < len(res.Rows); i += 512 {
		rows := make([][]float64, min(512, len(res.Rows)-i))
		for k := range rows {
			rows[k] = res.Rows[i+k]
		}
		emit(proto.KindRows, proto.Rows{ID: 1, Rows: rows})
	}
	emit(proto.KindEpochEnd, proto.EpochEnd{
		ID: 1, RowCount: len(res.Rows), Complete: res.Complete, Contributing: res.ContributingNodes,
		Members: res.MemberNodes, ResponseTime: res.ResponseTime,
	})
	emit(proto.KindDone, proto.Done{ID: 1, Epochs: 1})
}

// replayLayers times the layers under the daemon one at a time, from
// outside, on the workload's own texts and tables: the wire codec, the
// parser, plan preparation and the library execution.
func replayLayers(rep *report, o options, r *core.Runner, texts []text) error {
	each := o.sizes.replay
	root := o.rec.begin("replay", -1, 0)
	defer o.rec.end(root)
	n := len(texts)

	// proto: exact bytes and frames per operation, then encode and
	// decode replays.
	encoded := make([][]byte, n)
	var totalBytes, totalFrames, totalRows int
	for i, q := range texts {
		var buf bytes.Buffer
		var err error
		frames(q, func(kind byte, msg any) {
			if e := proto.WriteFrame(&buf, kind, msg); e != nil {
				err = e
			}
			totalFrames++
		})
		if err != nil {
			return err
		}
		encoded[i] = buf.Bytes()
		totalBytes += buf.Len()
		totalRows += len(q.res.Rows)
	}
	rep.set("proto.bytes_per_op", float64(totalBytes)/float64(n))
	rep.set("proto.frames_per_op", float64(totalFrames)/float64(n))
	rowsPerOp := max(float64(totalRows)/float64(n), 1)

	enc, err := replay(o.rec, "proto.encode", root, each, n, func(i int) error {
		var err error
		frames(texts[i], func(kind byte, msg any) { err = errors.Join(err, proto.WriteFrame(io.Discard, kind, msg)) })
		return err
	})
	if err != nil {
		return err
	}
	dec, err := replay(o.rec, "proto.decode", root, each, n, func(i int) error {
		for rd := bytes.NewReader(encoded[i]); rd.Len() > 0; {
			kind, payload, err := proto.ReadFrame(rd)
			if err != nil {
				return err
			}
			var msg any
			switch kind {
			case proto.KindHeader:
				msg = new(proto.Header)
			case proto.KindRows:
				msg = new(proto.Rows)
			case proto.KindEpochEnd:
				msg = new(proto.EpochEnd)
			case proto.KindDone:
				msg = new(proto.Done)
			}
			if err := proto.Decode(payload, msg); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	rep.set("proto.encode_us_per_op", float64(enc)/1e3)
	rep.set("proto.decode_us_per_op", float64(dec)/1e3)
	rep.set("proto.encode_ns_per_row", float64(enc)/rowsPerOp)
	rep.set("proto.decode_ns_per_row", float64(dec)/rowsPerOp)

	// query.Parse and Runner.Prepare: what a prepared-cache miss costs.
	parse, err := replay(o.rec, "query.parse", root, each/2, n, func(i int) error {
		_, err := query.Parse(texts[i].src)
		return err
	})
	if err != nil {
		return err
	}
	prepared := make([]*core.Prepared, n)
	prepare, err := replay(o.rec, "core.prepare", root, each/2, n, func(i int) (err error) {
		prepared[i], err = r.Prepare(texts[i].src)
		return err
	})
	if err != nil {
		return err
	}
	rep.set("query.parse_us", float64(parse)/1e3)
	rep.set("core.prepare_us", float64(prepare)/1e3)

	// The library execution the daemon wraps, on the same deployment:
	// one untimed cycle reads the simulated statistics (they repeat
	// exactly), then the timed replay runs nothing but RunPrepared.
	var events, packets int64
	responses := make([]float64, n)
	m := core.NewSENSJoin()
	for i := range texts {
		r.Stats.Reset()
		steps := r.Sim.Steps()
		res, err := r.RunPrepared(prepared[i], m, 0)
		if err != nil {
			return err
		}
		events += r.Sim.Steps() - steps
		packets += r.Stats.TotalTx()
		responses[i] = res.ResponseTime
	}
	run, err := replay(o.rec, "core.run", root, each, n, func(i int) error {
		_, err := r.RunPrepared(prepared[i], m, 0)
		return err
	})
	if err != nil {
		return err
	}
	rep.set("core.run_ms_per_op", float64(run)/1e6)
	rep.set("netsim.events_per_op", float64(events)/float64(n))
	rep.set("stats.tx_packets_per_op", float64(packets)/float64(n))
	rep.set("core.sim_response_s_p50", median(responses))
	return nil
}

// exactLayer names the per-layer metrics that are simulated statistics
// or byte counts: they depend on the inputs only, so two runs of the
// same code on the same seed must report them identically.
var exactLayer = map[string]bool{
	"proto.bytes_per_op": true, "proto.frames_per_op": true,
	"netsim.events_per_op": true, "stats.tx_packets_per_op": true, "core.sim_response_s_p50": true,
	"core.runs_per_pass": true, "netsim.events_per_pass": true, "netsim.tx_packets_per_pass": true,
	"stats.radio_bytes_per_node.external": true, "stats.radio_bytes_per_node.sens": true,
	"core.sim_response_s.sens": true,
}
