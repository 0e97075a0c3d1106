// Command experiments regenerates every table and figure of the paper's
// evaluation (§VI) plus the ablations documented in DESIGN.md.
//
// Usage:
//
//	experiments [-only E1a,E8] [-nodes 1500] [-seed 42] [-packet 48]
//	            [-parallel N] [-csv] [-json] [-audit] [-out result.json]
//	            [-cpuprofile cpu.out] [-memprofile mem.out]
//	            [-serve :9137] [-progress] [-hold] [-trace run.jsonl]
//	experiments -only L1 -loss 0.05,0.10
//	experiments -only X7 -scale 10000,100000 [-shards 1,8] -out BENCH_scale.json
//	experiments -only X8 [-mqo-n 1,2,4,8,16] -out BENCH_mqo.json
//	experiments -only X9 [-serve-seconds 3] -out BENCH_serve.json
//	experiments -only X10 [-churn-rates 0,0.01,0.05] [-churn-rounds 20] -out BENCH_churn.json
//
// -only selects from bench.Suite by id; without it the experiments of
// bench.All run. L1 and X7–X10 run only when named: each reads its
// parameter flags, and -out writes the machine-readable result of the one
// selected experiment that has one.
//
// Output is a sequence of aligned text tables, one per experiment, with
// notes comparing the measured shape to the paper's claims; -csv and
// -json switch the representation. Tables go to stdout in experiment
// order and are byte-identical for every -parallel value; per-experiment
// wall-clock lines go to stderr so timing noise never pollutes diffable
// output. Absolute packet counts depend on this simulator;
// EXPERIMENTS.md records the paper-vs-measured comparison.
//
// -serve starts a live observability server (see serve.go): Prometheus
// /metrics, JSON /progress, /healthz, /debug/vars, /debug/pprof and /quit.
// -progress prints
// per-cell completion lines to stderr. Neither changes stdout by a byte.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"sensjoin/internal/bench"
	"sensjoin/internal/metrics"
	"sensjoin/internal/trace"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// suiteNodes is the node count the experiments of bench.All default to,
// shown in the header when -nodes is not given.
const suiteNodes = 1500

// run is the command: it parses args, runs the selected experiments and
// returns the exit status (2 for a usage error, 1 for a failure).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	fs.SetOutput(stderr)
	nodes := fs.Int("nodes", 0, "sensor node count; 0 = each experiment's own default (the paper's 1500; 150 for X9 and X10)")
	seed := fs.Int64("seed", 42, "placement and field seed")
	packet := fs.Int("packet", 48, "maximum packet size in bytes")
	only := fs.String("only", "", "comma-separated experiment ids to run (e.g. E1a,E8,X8); empty = the suite of bench.All")
	csv := fs.Bool("csv", false, "emit CSV instead of aligned tables")
	jsonOut := fs.Bool("json", false, "emit one JSON document with tables, packet totals and timings")
	out := fs.String("out", "", "write the selected experiment's machine-readable result (X7-X10, the BENCH_*.json artefacts) to this file")
	parallel := fs.Int("parallel", runtime.NumCPU(), "worker count for experiment/sweep-cell fan-out; 1 = sequential")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := fs.String("memprofile", "", "write a heap profile to this file")
	audit := fs.Bool("audit", false, "self-audit every execution against its journal; violations fail the experiment")
	traceFile := fs.String("trace", "", "instead of the suite, journal one calibrated SENS-Join run: JSONL to this file, Chrome trace alongside, breakdown to stdout")
	serveAddr := fs.String("serve", "", "serve live observability on this address (e.g. :9137 or 127.0.0.1:0): /metrics, /progress, /healthz, /debug/vars, /debug/pprof/, /quit")
	progress := fs.Bool("progress", false, "print per-cell sweep completion lines to stderr")
	hold := fs.Bool("hold", false, "with -serve: keep serving after the suite finishes until GET /quit or interrupt")
	loss := fs.String("loss", "", "L1: comma-separated packet loss rates (e.g. 0.05,0.10) to sweep with hop-by-hop reliable transport")
	scale := fs.String("scale", "", "X7: comma-separated node counts (e.g. 10000,100000)")
	shards := fs.String("shards", "1,8", "X7: comma-separated simulator shard counts per size")
	mqoNs := fs.String("mqo-n", "1,2,4,8,16", "X8: comma-separated concurrent query counts")
	churnRates := fs.String("churn-rates", "0,0.01,0.05", "X10: comma-separated per-epoch churn rates")
	churnRounds := fs.Int("churn-rounds", 20, "X10: query rounds per cell")
	serveSeconds := fs.Float64("serve-seconds", 3, "X9: measured load window in seconds")
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}
	// exit says err and returns code: 2 for a usage error, 1 for a failure.
	exit := func(code int, err error) int {
		fmt.Fprintln(stderr, "experiments:", err)
		return code
	}

	params := bench.Params{
		ChurnRounds: *churnRounds,
		ServeWindow: time.Duration(*serveSeconds * float64(time.Second)),
	}
	var bad [5]error // one per list flag; every bad list is named
	params.Loss, bad[0] = rateList("-loss", *loss)
	params.ChurnRates, bad[1] = rateList("-churn-rates", *churnRates)
	params.Scale, bad[2] = intList("-scale", *scale)
	params.Shards, bad[3] = intList("-shards", *shards)
	params.MQONs, bad[4] = intList("-mqo-n", *mqoNs)
	err := errors.Join(bad[:]...)
	if err != nil {
		return exit(2, err)
	}

	active, err := selectExperiments(*only)
	if err != nil {
		return exit(2, err)
	}
	if *out != "" {
		var with []string
		for _, e := range active {
			if e.Artefact != "" {
				with = append(with, e.ID)
			}
		}
		if len(with) != 1 {
			return exit(2, fmt.Errorf("-out writes one JSON result: select exactly one of X7, X8, X9, X10 with -only (selected: %d %v)", len(with), with))
		}
	}

	cfg := bench.Config{Nodes: *nodes, Seed: *seed, MaxPacket: *packet, Parallel: *parallel, Audit: *audit}

	// Observability: a registry when serving, a progress tracker when
	// serving or -progress (live lines only with -progress). Tables are
	// byte-identical with or without either.
	var obs *obsServer
	if *serveAddr != "" || *progress {
		var progW io.Writer
		if *progress {
			progW = stderr
		}
		cfg.Progress = bench.NewProgress(progW)
	}
	if *serveAddr != "" {
		cfg.Metrics = metrics.New()
		if obs, err = startServe(*serveAddr, cfg.Metrics, cfg.Progress, stderr); err != nil {
			return exit(1, err)
		}
		defer obs.Stop()
	}

	if *traceFile != "" {
		if err := writeTrace(cfg, *traceFile, stdout, stderr); err != nil {
			return exit(1, err)
		}
		return 0
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return exit(1, err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return exit(1, err)
		}
		defer pprof.StopCPUProfile()
	}

	// Run everything first (whole experiments fan out on top of the
	// per-experiment sweep-cell fan-out), then print in declaration
	// order: stdout stays byte-identical for every -parallel value.
	type result struct {
		tbl      *bench.Table
		artefact any
		elapsed  time.Duration
	}
	cfg.Progress.Begin("suite", len(active))
	jobs := make([]func() (result, error), len(active))
	for i, e := range active {
		jobs[i] = func() (result, error) {
			t0 := time.Now()
			tbl, artefact, err := e.Run(cfg, params)
			cfg.Progress.CellDone("suite", err == nil)
			if err != nil {
				return result{}, fmt.Errorf("%s failed: %w", e.ID, err)
			}
			return result{tbl: tbl, artefact: artefact, elapsed: time.Since(t0)}, nil
		}
	}
	start := time.Now()
	results, err := bench.Fanout(*parallel, jobs)
	if err != nil {
		return exit(1, err)
	}
	total := time.Since(start)

	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			return exit(1, err)
		}
		defer f.Close()
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			return exit(1, err)
		}
	}
	if *out != "" {
		for _, r := range results {
			if r.artefact != nil {
				if err := writeJSON(*out, r.artefact); err != nil {
					return exit(1, err)
				}
			}
		}
	}

	shownNodes := *nodes
	if shownNodes == 0 {
		shownNodes = suiteNodes
	}
	if *jsonOut {
		doc := jsonDoc{
			Nodes: shownNodes, Seed: cfg.Seed, MaxPacket: cfg.MaxPacket,
			Parallel: *parallel, Total: total.Seconds(),
		}
		for _, r := range results {
			doc.Experiments = append(doc.Experiments, jsonExperiment{
				ID: r.tbl.ID, Title: r.tbl.Title, Header: r.tbl.Header,
				Rows: r.tbl.Rows, Notes: r.tbl.Notes,
				TxPackets: r.tbl.TxPackets,
				Elapsed:   r.elapsed.Seconds(),
			})
			doc.TxPackets += r.tbl.TxPackets
		}
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(doc); err != nil {
			return exit(1, err)
		}
		if obs != nil && *hold {
			obs.hold()
		}
		return 0
	}

	// The header states the suite's configuration; the on-demand
	// experiments carry theirs in their own titles.
	for _, e := range active {
		if !e.OnDemand {
			fmt.Fprintf(stdout, "SENS-Join experiment suite — %d nodes, seed %d, %dB packets\n\n", shownNodes, *seed, *packet)
			break
		}
	}
	for i, e := range active {
		tbl := results[i].tbl
		if *csv {
			fmt.Fprintf(stdout, "# %s — %s\n%s\n", tbl.ID, tbl.Title, tbl.CSV())
		} else {
			fmt.Fprintln(stdout, tbl)
		}
		fmt.Fprintf(stderr, "(%s in %.1fs)\n", e.ID, results[i].elapsed.Seconds())
	}
	fmt.Fprintf(stderr, "total: %.1fs (parallel %d)\n", total.Seconds(), *parallel)
	if obs != nil && *hold {
		obs.hold()
	}
	return 0
}

// selectExperiments returns the experiments -only names, in Suite order;
// an empty list selects what bench.All runs.
func selectExperiments(only string) ([]bench.Experiment, error) {
	var active []bench.Experiment
	if only == "" {
		for _, e := range bench.Suite {
			if !e.OnDemand {
				active = append(active, e)
			}
		}
		return active, nil
	}
	wanted := map[string]bool{}
	for _, id := range strings.Split(only, ",") {
		wanted[strings.TrimSpace(id)] = true
	}
	var ids []string
	for _, e := range bench.Suite {
		ids = append(ids, e.ID)
		if wanted[e.ID] {
			active = append(active, e)
			delete(wanted, e.ID)
		}
	}
	for id := range wanted {
		return nil, fmt.Errorf("-only: no experiment %q; the ids are %s", id, strings.Join(ids, ", "))
	}
	return active, nil
}

// intList parses a comma-separated list of positive integers; an empty
// string is an empty list.
func intList(flagName, s string) ([]int, error) {
	var out []int
	for _, part := range splitList(s) {
		v, err := strconv.Atoi(part)
		if err != nil || v <= 0 {
			return nil, fmt.Errorf("%s: bad value %q", flagName, part)
		}
		out = append(out, v)
	}
	return out, nil
}

// rateList parses a comma-separated list of probabilities in [0, 1); an
// empty string is an empty list.
func rateList(flagName, s string) ([]float64, error) {
	var out []float64
	for _, part := range splitList(s) {
		rate, err := strconv.ParseFloat(part, 64)
		if err != nil {
			return nil, fmt.Errorf("%s: cannot parse rate %q: %w", flagName, part, err)
		}
		if !(rate >= 0 && rate < 1) {
			return nil, fmt.Errorf("%s: rate %g out of range [0, 1)", flagName, rate)
		}
		out = append(out, rate)
	}
	return out, nil
}

func splitList(s string) []string {
	if s == "" {
		return nil
	}
	parts := strings.Split(s, ",")
	for i := range parts {
		parts[i] = strings.TrimSpace(parts[i])
	}
	return parts
}

// writeJSON writes v as indented JSON to the artefact file path.
func writeJSON(path string, v any) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeTrace journals one calibrated SENS-Join run, writes it as JSON
// Lines plus a Chrome trace_event file (gzipped when path ends in
// ".gz"), and prints the per-phase response-time breakdown.
func writeTrace(cfg bench.Config, path string, stdout, stderr io.Writer) error {
	j, violations, err := bench.RunTraced(cfg)
	if err != nil {
		return err
	}
	if err := trace.WriteFile(path, func(w io.Writer) error { return trace.WriteJSONL(w, j) }); err != nil {
		return err
	}
	chrome := trace.ChromePathFor(path)
	if err := trace.WriteFile(chrome, func(w io.Writer) error { return trace.WriteChrome(w, j) }); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "journal: %d events -> %s (+ %s)\n\n", len(j.Events), path, chrome)
	fmt.Fprintln(stdout, trace.PhaseBreakdown(j))
	for _, v := range violations {
		fmt.Fprintf(stderr, "audit violation: %s\n", v)
	}
	if len(violations) > 0 {
		return fmt.Errorf("%d audit violation(s)", len(violations))
	}
	return nil
}

// jsonExperiment is one experiment in -json output.
type jsonExperiment struct {
	ID        string     `json:"id"`
	Title     string     `json:"title"`
	Header    []string   `json:"header"`
	Rows      [][]string `json:"rows"`
	Notes     []string   `json:"notes,omitempty"`
	TxPackets int64      `json:"tx_packets"`
	Elapsed   float64    `json:"elapsed_sec"`
}

type jsonDoc struct {
	Nodes       int              `json:"nodes"`
	Seed        int64            `json:"seed"`
	MaxPacket   int              `json:"max_packet"`
	Parallel    int              `json:"parallel"`
	Experiments []jsonExperiment `json:"experiments"`
	TxPackets   int64            `json:"tx_packets"`
	Total       float64          `json:"total_sec"`
}
