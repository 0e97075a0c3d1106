// Command experiments regenerates every table and figure of the paper's
// evaluation (§VI) plus the ablations documented in DESIGN.md.
//
// Usage:
//
//	experiments [-nodes 1500] [-seed 42] [-packet 48] [-only E1a,E8]
//	            [-parallel N] [-csv] [-json] [-audit] [-trace run.jsonl]
//	            [-loss 0.05,0.10] [-cpuprofile cpu.out] [-memprofile mem.out]
//	            [-serve :9137] [-progress] [-hold]
//	            [-scale 10000,100000] [-mqo -mqo-n 1,2,4,8,16 -mqo-json BENCH_mqo.json]
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
// /metrics, JSON /progress, expvar and /debug/pprof. -progress prints
// per-cell completion lines to stderr. Neither changes stdout by a byte.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"strconv"
	"strings"
	"time"

	"sensjoin/internal/bench"
	"sensjoin/internal/metrics"
	"sensjoin/internal/trace"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func run() error {
	nodes := flag.Int("nodes", 1500, "sensor node count (paper default 1500)")
	seed := flag.Int64("seed", 42, "placement and field seed")
	packet := flag.Int("packet", 48, "maximum packet size in bytes")
	only := flag.String("only", "", "comma-separated experiment ids to run (e.g. E1a,E8); empty = all")
	csv := flag.Bool("csv", false, "emit CSV instead of aligned tables")
	jsonOut := flag.Bool("json", false, "emit one JSON document with tables, packet totals and timings")
	parallel := flag.Int("parallel", runtime.NumCPU(), "worker count for experiment/sweep-cell fan-out; 1 = sequential")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file")
	audit := flag.Bool("audit", false, "self-audit every execution against its journal; violations fail the experiment")
	traceFile := flag.String("trace", "", "instead of the suite, journal one calibrated SENS-Join run: JSONL to this file, Chrome trace alongside, breakdown to stdout")
	loss := flag.String("loss", "", "comma-separated packet loss rates (e.g. 0.05,0.10): adds the L1 loss-resilience sweep with hop-by-hop reliable transport")
	serveAddr := flag.String("serve", "", "serve live observability on this address (e.g. :9137 or 127.0.0.1:0): /metrics, /progress, /debug/vars, /debug/pprof/")
	progress := flag.Bool("progress", false, "print per-cell sweep completion lines to stderr")
	hold := flag.Bool("hold", false, "with -serve: keep serving after the suite finishes until GET /quit or interrupt")
	scale := flag.String("scale", "", "comma-separated node counts (e.g. 10000,100000): instead of the suite, run the X7 scale experiment")
	shards := flag.String("shards", "1,8", "with -scale: comma-separated simulator shard counts per size")
	scaleJSON := flag.String("scale-json", "", "with -scale: also write the machine-readable result to this file")
	mqo := flag.Bool("mqo", false, "instead of the suite, run the X8 multi-query optimization experiment")
	mqoNs := flag.String("mqo-n", "1,2,4,8,16", "with -mqo: comma-separated concurrent query counts")
	mqoJSON := flag.String("mqo-json", "", "with -mqo: also write the machine-readable result to this file")
	churn := flag.Bool("churn", false, "instead of the suite, run the X10 churn-resilience experiment")
	churnRates := flag.String("churn-rates", "0,0.01,0.05", "with -churn: comma-separated per-epoch churn rates")
	churnRounds := flag.Int("churn-rounds", 20, "with -churn: query rounds per cell")
	churnNodes := flag.Int("churn-nodes", 150, "with -churn: deployment node count")
	churnJSON := flag.String("churn-json", "", "with -churn: also write the machine-readable result to this file")
	serveLoad := flag.Bool("serve-load", false, "instead of the suite, run the X9 sensjoind serving-load experiment")
	serveNodes := flag.Int("serve-nodes", 150, "with -serve-load: deployment node count")
	serveClients := flag.Int("serve-clients", 0, "with -serve-load: concurrent client sessions (0 = 2x GOMAXPROCS)")
	serveSeconds := flag.Float64("serve-seconds", 3, "with -serve-load: measured load window in seconds")
	serveLoadJSON := flag.String("serve-load-json", "", "with -serve-load: also write the machine-readable result to this file")
	flag.Parse()

	var lossRates []float64
	if *loss != "" {
		for _, s := range strings.Split(*loss, ",") {
			var rate float64
			if _, err := fmt.Sscanf(strings.TrimSpace(s), "%g", &rate); err != nil {
				return fmt.Errorf("-loss: cannot parse rate %q: %w", s, err)
			}
			if rate < 0 || rate >= 1 {
				return fmt.Errorf("-loss: rate %g out of range [0, 1)", rate)
			}
			lossRates = append(lossRates, rate)
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
			progW = os.Stderr
		}
		cfg.Progress = bench.NewProgress(progW)
	}
	if *serveAddr != "" {
		cfg.Metrics = metrics.New()
		var err error
		if obs, err = startServe(*serveAddr, cfg.Metrics, cfg.Progress); err != nil {
			return err
		}
		defer obs.stop()
	}

	if *traceFile != "" {
		return writeTrace(cfg, *traceFile)
	}
	if *scale != "" {
		return runScale(*scale, *shards, *seed, *scaleJSON, *cpuprofile)
	}
	if *mqo {
		return runMQO(*nodes, *seed, *packet, *mqoNs, *mqoJSON)
	}
	if *churn {
		return runChurn(*churnNodes, *seed, *packet, *parallel, *churnRates, *churnRounds, *churnJSON)
	}
	if *serveLoad {
		return runServeLoad(*serveNodes, *seed, *serveClients, *serveSeconds, *serveLoadJSON)
	}

	// bench.Suite's element type, spelled out so L1 can join the list.
	type experiment = struct {
		ID  string
		Run func(bench.Config) (*bench.Table, error)
	}
	suite := bench.Suite
	if len(lossRates) > 0 {
		suite = append(slices.Clip(suite), experiment{"L1", func(c bench.Config) (*bench.Table, error) {
			return bench.RunLossResilience(c, lossRates)
		}})
	}

	selected := map[string]bool{}
	if *only != "" {
		for _, id := range strings.Split(*only, ",") {
			selected[strings.TrimSpace(id)] = true
		}
	}
	var active []experiment
	for _, e := range suite {
		if len(selected) > 0 && !selected[e.ID] {
			continue
		}
		active = append(active, e)
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}

	// Run everything first (whole experiments fan out on top of the
	// per-experiment sweep-cell fan-out), then print in declaration
	// order: stdout stays byte-identical for every -parallel value.
	type result struct {
		tbl     *bench.Table
		elapsed time.Duration
	}
	cfg.Progress.Begin("suite", len(active))
	jobs := make([]func() (result, error), len(active))
	for i, e := range active {
		jobs[i] = func() (result, error) {
			t0 := time.Now()
			tbl, err := e.Run(cfg)
			cfg.Progress.CellDone("suite", err == nil)
			if err != nil {
				return result{}, fmt.Errorf("%s failed: %w", e.ID, err)
			}
			return result{tbl: tbl, elapsed: time.Since(t0)}, nil
		}
	}
	start := time.Now()
	results, err := bench.Fanout(*parallel, jobs)
	if err != nil {
		return err
	}
	total := time.Since(start)

	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			return err
		}
		defer f.Close()
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			return err
		}
	}

	if *jsonOut {
		doc := jsonDoc{
			Nodes: cfg.Nodes, Seed: cfg.Seed, MaxPacket: cfg.MaxPacket,
			Parallel: *parallel, Total: total.Seconds(),
		}
		for i := range active {
			tbl := results[i].tbl
			doc.Experiments = append(doc.Experiments, jsonExperiment{
				ID: tbl.ID, Title: tbl.Title, Header: tbl.Header,
				Rows: tbl.Rows, Notes: tbl.Notes,
				TxPackets: tbl.TxPackets,
				Elapsed:   results[i].elapsed.Seconds(),
			})
			doc.TxPackets += tbl.TxPackets
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(doc); err != nil {
			return err
		}
		if obs != nil && *hold {
			obs.hold()
		}
		return nil
	}

	fmt.Printf("SENS-Join experiment suite — %d nodes, seed %d, %dB packets\n\n", *nodes, *seed, *packet)
	for i, e := range active {
		tbl := results[i].tbl
		if *csv {
			fmt.Printf("# %s — %s\n%s\n", tbl.ID, tbl.Title, tbl.CSV())
		} else {
			fmt.Println(tbl)
		}
		fmt.Fprintf(os.Stderr, "(%s in %.1fs)\n", e.ID, results[i].elapsed.Seconds())
	}
	fmt.Fprintf(os.Stderr, "total: %.1fs (parallel %d)\n", total.Seconds(), *parallel)
	if obs != nil && *hold {
		obs.hold()
	}
	return nil
}

// intList parses a comma-separated list of positive integers.
func intList(flagName, s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || v <= 0 {
			return nil, fmt.Errorf("%s: bad value %q", flagName, part)
		}
		out = append(out, v)
	}
	return out, nil
}

// runScale executes the X7 scale experiment: the table goes to stdout,
// per-point progress to stderr, and -scale-json writes the raw artifact.
func runScale(sizes, shards string, seed int64, jsonPath, cpuprofile string) error {
	ns, err := intList("-scale", sizes)
	if err != nil {
		return err
	}
	sh, err := intList("-shards", shards)
	if err != nil {
		return err
	}
	if cpuprofile != "" {
		f, err := os.Create(cpuprofile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	res, err := bench.RunScale(bench.ScaleConfig{Sizes: ns, Shards: sh, Seed: seed})
	if err != nil {
		return err
	}
	fmt.Println(res.Table())
	return writeJSON(jsonPath, res)
}

// writeJSON writes v as indented JSON to the artifact file path; an empty
// path (the flag was not given) writes nothing.
func writeJSON(path string, v any) error {
	if path == "" {
		return nil
	}
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

// runMQO executes the X8 shared-execution experiment: the table goes to
// stdout and -mqo-json writes the raw artifact.
func runMQO(nodes int, seed int64, packet int, nsList, jsonPath string) error {
	ns, err := intList("-mqo-n", nsList)
	if err != nil {
		return err
	}
	res, err := bench.RunMQO(bench.MQOConfig{Nodes: nodes, Seed: seed, MaxPacket: packet, Ns: ns})
	if err != nil {
		return err
	}
	fmt.Println(res.Table())
	return writeJSON(jsonPath, res)
}

// runChurn executes the X10 churn-resilience experiment: the table goes
// to stdout and -churn-json writes the raw artifact.
func runChurn(nodes int, seed int64, packet, parallel int, ratesList string, rounds int, jsonPath string) error {
	var rates []float64
	for _, s := range strings.Split(ratesList, ",") {
		var rate float64
		if _, err := fmt.Sscanf(strings.TrimSpace(s), "%g", &rate); err != nil {
			return fmt.Errorf("-churn-rates: cannot parse rate %q: %w", s, err)
		}
		if rate < 0 || rate >= 1 {
			return fmt.Errorf("-churn-rates: rate %g out of range [0, 1)", rate)
		}
		rates = append(rates, rate)
	}
	res, err := bench.RunChurnResilience(bench.ChurnBenchConfig{
		Nodes: nodes, Seed: seed, MaxPacket: packet, Parallel: parallel,
		Rates: rates, Rounds: rounds,
	})
	if err != nil {
		return err
	}
	fmt.Println(res.Table())
	return writeJSON(jsonPath, res)
}

// runServeLoad executes the X9 serving experiment: the table goes to
// stdout and -serve-load-json writes the raw artifact.
func runServeLoad(nodes int, seed int64, clients int, seconds float64, jsonPath string) error {
	res, err := bench.RunServeLoad(bench.ServeConfig{
		Nodes: nodes, Seed: seed, Clients: clients,
		Duration: time.Duration(seconds * float64(time.Second)),
	})
	if err != nil {
		return err
	}
	fmt.Println(res.Table())
	return writeJSON(jsonPath, res)
}

// writeTrace journals one calibrated SENS-Join run, writes it as JSON
// Lines plus a Chrome trace_event file (gzipped when path ends in
// ".gz"), and prints the per-phase response-time breakdown.
func writeTrace(cfg bench.Config, path string) error {
	j, violations, err := bench.RunTraced(cfg)
	if err != nil {
		return err
	}
	if err := trace.ExportJSONL(path, j); err != nil {
		return err
	}
	chrome := trace.ChromePathFor(path)
	if err := trace.ExportChrome(chrome, j); err != nil {
		return err
	}
	fmt.Printf("journal: %d events -> %s (+ %s)\n\n", len(j.Events), path, chrome)
	fmt.Println(trace.PhaseBreakdown(j))
	for _, v := range violations {
		fmt.Fprintf(os.Stderr, "audit violation: %s\n", v)
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
