// Command benchmark is the repository's benchmark: four long-run
// workloads, each measured end to end and, in a separate traced run,
// layer by layer. See README.md in this directory for what every
// workload and metric means and why it was chosen.
//
//	bash benchmark/run.sh --workload serve_point --seed 42 --seconds 20 --trace 0
//
// runs one workload in one process and prints, as the last line of
// standard output, one JSON object {correct, attempted, failed,
// metrics}; with --trace 0 the metrics are the end-to-end ones, with
// --trace 1 the per-layer ones. A failed oracle check makes the exit
// code non-zero.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricDef names a metric of the benchmark's vocabulary.
type metricDef struct {
	name, unit, better string
}

// endToEnd lists the gated metrics, reported by every workload.
// failed_share is not among them because the result line already
// carries attempted and failed, and a gated metric may never read 0.
var endToEnd = []metricDef{
	{"ops_per_s", "1/s", "higher"},
	{"op_p50_ms", "ms", "lower"},
	{"alloc_kb_per_op", "KB", "lower"},
	{"peak_rss_mb", "MB", "lower"},
	{"setup_s", "s", "lower"},
}

// report is what one run of one workload produces.
type report struct {
	attempted, failed int
	values            map[string]float64
}

func (r *report) set(name string, v float64) { r.values[name] = v }

func (o options) traced() bool { return o.rec != nil }

// options are the inputs of one run.
type options struct {
	seed    int64
	seconds time.Duration
	sizes   sizes
	rec     *recorder // non-nil makes the run a traced one
	outDir  string    // where golden files live and span files go
	root    string    // repository root (holds experiments_output.txt)
}

// sizes are the deployment sizes of the workloads; the tests shrink
// them, the benchmark always runs the defaults.
type sizes struct {
	serveNodes, servePointTexts, suiteNodes, scaleNodes int
	// ramp is the unmeasured load before the window; replay is how long
	// each layer replay of a traced serving run lasts.
	ramp, replay time.Duration
}

var defaultSizes = sizes{serveNodes: 150, servePointTexts: 512, suiteNodes: 1500, scaleNodes: 100000, ramp: 3 * time.Second, replay: time.Second}

// coldSetups is how many cold set-ups a run of a serving workload or of
// paper_suite times; setup_s is their median. Three left the median
// spreading 14-16% over ten runs on a drifting host.
const coldSetups = 5

var workloads = map[string]func(options) (*report, error){
	"serve_point": func(o options) (*report, error) { return runServe(servePoint, o) },
	"serve_rows":  func(o options) (*report, error) { return runServe(serveRows, o) },
	"paper_suite": runPaperSuite,
	"sim_scale":   runSimScale,
}

// findRoot walks up from the working directory to the directory that
// holds BENCHMARK.json, so the program works from the repository root
// (run.sh) and from this directory (go test, go run).
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("BENCHMARK.json not found in any parent directory")
		}
		dir = parent
	}
}

// resultLine renders the last line of standard output. defs decides
// which metrics appear: a per-layer metric that does not apply to the
// workload reads 0.
func resultLine(rep *report, defs []metricDef) ([]byte, error) {
	m := make(map[string]metric, len(defs))
	for _, d := range defs {
		m[d.name] = metric{Value: rep.values[d.name], Unit: d.unit}
	}
	return json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{rep.failed == 0 && rep.attempted > 0, rep.attempted, rep.failed, m})
}

func run() error {
	workload := flag.String("workload", "", "serve_point, serve_rows, paper_suite or sim_scale")
	seed := flag.Int64("seed", 42, "drives the generated inputs: literals (serve_*), sensor fields (sim_scale)")
	seconds := flag.Float64("seconds", 20, "length of the measured window")
	trace := flag.Int("trace", 0, "1 = traced run: per-layer metrics and a span file in benchmark/out/")
	selfcheck := flag.Bool("selfcheck", false, "run every workload as two interleaved sets and compare them against the bounds in BENCHMARK.json")
	flag.Parse()

	// The host has 2 vCPUs; pinning keeps the figures comparable on a
	// larger machine (before Go 1.25 GOMAXPROCS ignores a CPU quota).
	runtime.GOMAXPROCS(2)

	root, err := findRoot()
	if err != nil {
		return err
	}
	if *selfcheck {
		return runSelfcheck(root, *seed, *seconds)
	}
	fn, ok := workloads[*workload]
	if !ok {
		return fmt.Errorf("unknown workload %q", *workload)
	}
	if *seconds < 1 {
		return fmt.Errorf("-seconds %v: need at least 1", *seconds)
	}
	o := options{
		seed: *seed, seconds: time.Duration(*seconds * float64(time.Second)),
		sizes: defaultSizes, outDir: filepath.Join(root, "benchmark"), root: root,
	}
	defs := endToEnd
	if *trace != 0 {
		o.rec = newRecorder()
		defs = perLayer
	}
	rep, err := fn(o)
	if err != nil {
		return err
	}
	if o.traced() {
		out := filepath.Join(o.outDir, "out")
		if err := os.MkdirAll(out, 0o755); err != nil {
			return err
		}
		path := filepath.Join(out, fmt.Sprintf("%s-seed%d.spans.jsonl", *workload, *seed))
		if err := o.rec.write(path); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "spans: %d -> %s\n", len(o.rec.spans), path)
		printSelf(o.rec.spans)
	}
	printMetrics(rep, defs)
	line, err := resultLine(rep, defs)
	if err != nil {
		return err
	}
	fmt.Printf("%s\n", line)
	if rep.failed > 0 {
		return fmt.Errorf("%d of %d operations failed or did not match the oracle", rep.failed, rep.attempted)
	}
	return nil
}

// printMetrics lists every metric by name with its unit on standard
// error, for a person; the driver reads the JSON line.
func printMetrics(rep *report, defs []metricDef) {
	for _, d := range defs {
		if v, ok := rep.values[d.name]; ok {
			fmt.Fprintf(os.Stderr, "%-36s %14.4f %s\n", d.name, v, d.unit)
		}
	}
	fmt.Fprintf(os.Stderr, "%-36s %14d of %d\n", "failed", rep.failed, rep.attempted)
}

func printSelf(spans []span) {
	self := selfSeconds(spans)
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(os.Stderr, "self %-31s %14.4f s\n", n, self[n])
	}
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}
