package main

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"time"

	"sensjoin/internal/bench"
	"sensjoin/internal/core"
	"sensjoin/internal/metrics"
	"sensjoin/internal/workload"
)

// paper_suite: the paper's whole evaluation (bench.All, 19 result
// tables) at the paper's own scale, pass after pass, library only.

// suiteSeed is the deployment seed of every pass. bench.All takes no
// other input than (nodes, seed), and the seed decides placement and
// fields together: across seeds 1-10 a pass took 1.28-1.56 s, allocated
// 86-100 MB per table and peaked at 62-102 MB, spreads as wide as the
// regressions the benchmark must catch. So the suite always runs the
// deployment experiments_output.txt was recorded on, which is also the
// strictest oracle there is, and -seed does not change its inputs.
const suiteSeed = 42

func suiteConfig(o options, parallel int) bench.Config {
	return bench.Config{Nodes: o.sizes.suiteNodes, Seed: suiteSeed, Parallel: parallel}
}

// renderSuite prints the tables the way cmd/experiments does on
// standard output.
func renderSuite(o options, tables []*bench.Table) string {
	var b strings.Builder
	fmt.Fprintf(&b, "SENS-Join experiment suite — %d nodes, seed %d, %dB packets\n\n", o.sizes.suiteNodes, suiteSeed, 48)
	for _, t := range tables {
		fmt.Fprintln(&b, t)
	}
	return b.String()
}

var timingLine = regexp.MustCompile(`(?m)^(\((E|A|X)[0-9][^\n]*|total:[^\n]*)\n`)

// suiteReference is what every pass must render to, byte for byte. At
// the size of experiments_output.txt (1500 nodes) that checked-in
// file, minus its timing lines, is the reference: it pins the tables to
// what the repository has always printed. The tests' smaller size is
// checked against one sequential (Parallel: 1) pass instead.
func suiteReference(o options) (string, error) {
	if o.sizes.suiteNodes == 1500 {
		b, err := os.ReadFile(filepath.Join(o.root, "experiments_output.txt"))
		if err != nil {
			return "", err
		}
		return timingLine.ReplaceAllString(string(b), ""), nil
	}
	tables, err := bench.All(suiteConfig(o, 1))
	if err != nil {
		return "", err
	}
	return renderSuite(o, tables), nil
}

// suitePass is one timed bench.All pass with what it cost.
type suitePass struct {
	seconds float64
	use     usage
	peakMB  float64
	ok      bool
}

func runSuitePass(o options, rec *recorder, cfg bench.Config, ref string, op int64) (suitePass, error) {
	resetPeakRSS()
	before := readUsage()
	var tables []*bench.Table
	var err error
	d := rec.timed("bench.all", -1, op, func() { tables, err = bench.All(cfg) })
	if err != nil {
		return suitePass{}, err
	}
	use := readUsage().minus(before)
	return suitePass{seconds: d.Seconds(), use: use, peakMB: peakRSSMB(), ok: renderSuite(o, tables) == ref}, nil
}

func runPaperSuite(o options) (*report, error) {
	rep := &report{values: map[string]float64{}}
	ref, err := suiteReference(o)
	if err != nil {
		return nil, err
	}
	count := func(p suitePass) {
		rep.attempted += len(suiteIDs)
		if !p.ok {
			rep.failed += len(suiteIDs)
		}
	}

	// setup_s: the median of coldSetups cold passes (deployment cache
	// dropped; the calibration caches key on the deployment, so they
	// are cold too). They also serve as the ramp.
	var setups []float64
	for i := 0; i < coldSetups; i++ {
		core.ResetSetupCache()
		p, err := runSuitePass(o, nil, suiteConfig(o, 2), ref, 0)
		if err != nil {
			return nil, err
		}
		count(p)
		setups = append(setups, p.seconds)
		if o.traced() {
			break // the traced run needs the warm caches only
		}
	}
	rep.set("setup_s", median(setups))

	// The window: warm passes until the time is up. A traced run
	// alternates passes without and with a live metrics registry.
	var reg *metrics.Registry
	if o.traced() {
		reg = metrics.New()
	}
	var plain, traced []suitePass
	var counters [][3]float64
	start := time.Now()
	for i := 0; time.Since(start) < o.seconds || len(plain) == 0 || (o.traced() && len(traced) == 0); i++ {
		cfg := suiteConfig(o, 2)
		var rec *recorder
		withReg := o.traced() && i%2 == 1
		if withReg {
			cfg.Metrics, rec = reg, o.rec
		}
		before := reg.Snapshot()
		p, err := runSuitePass(o, rec, cfg, ref, int64(i))
		if err != nil {
			return nil, err
		}
		count(p)
		if !withReg {
			plain = append(plain, p)
			continue
		}
		traced = append(traced, p)
		after := reg.Snapshot()
		delta := func(name string) float64 { return num(after[name]) - num(before[name]) }
		counters = append(counters, [3]float64{
			delta("sensjoin_core_runs_total"), delta("sensjoin_netsim_events_total"), delta("sensjoin_netsim_tx_packets_total"),
		})
	}

	seconds := func(p suitePass) float64 { return p.seconds }
	plainSecs := collect(plain, seconds)
	if !o.traced() {
		ops := float64(len(plain) * len(suiteIDs))
		rep.set("ops_per_s", ops/sum(plainSecs))
		rep.set("op_p50_ms", median(plainSecs)*1e3)
		rep.set("alloc_kb_per_op", sum(collect(plain, func(p suitePass) float64 { return float64(p.use.allocBytes) }))/1024/ops)
		rep.set("peak_rss_mb", median(collect(plain, func(p suitePass) float64 { return p.peakMB })))
		fmt.Fprintf(os.Stderr, "window: %d passes, seconds %.3f, cold %.3f\n", len(plain), plainSecs, setups)
		return rep, nil
	}

	tracedSecs := collect(traced, seconds)
	var use usage
	for _, p := range traced {
		use = use.plus(p.use)
	}
	rep.set("harness.trace_overhead_share", 1-median(plainSecs)/median(tracedSecs))
	runtimeLayer(rep, use, len(traced)*len(suiteIDs))
	for _, c := range counters[1:] {
		if c != counters[0] {
			rep.failed++ // the simulated statistics of identical passes must repeat exactly
		}
	}
	rep.set("core.runs_per_pass", counters[0][0])
	rep.set("netsim.events_per_pass", counters[0][1])
	rep.set("netsim.tx_packets_per_pass", counters[0][2])
	rep.set("netsim.events_per_s", counters[0][1]/median(tracedSecs))

	// One sequential pass against the two-worker ones.
	p, err := runSuitePass(o, nil, suiteConfig(o, 1), ref, 0)
	if err != nil {
		return nil, err
	}
	count(p)
	rep.set("bench.fanout_speedup", p.seconds/median(plainSecs))

	// Every experiment on its own, in All's order.
	cfg := suiteConfig(o, 2)
	r33, r60 := workload.Ratio33(), workload.Ratio60()
	exps := []func() (*bench.Table, error){
		func() (*bench.Table, error) { return bench.RunOverallSavings(cfg, r33) },
		func() (*bench.Table, error) { return bench.RunOverallSavings(cfg, r60) },
		func() (*bench.Table, error) { return bench.RunPerNodeSavings(cfg, r33) },
		func() (*bench.Table, error) { return bench.RunPerNodeSavings(cfg, r60) },
		func() (*bench.Table, error) {
			return bench.RunRatioSweep(cfg, workload.RatioSweep3JA(), "E3 / Fig. 12")
		},
		func() (*bench.Table, error) {
			return bench.RunRatioSweep(cfg, workload.RatioSweep1JA(), "E4 / Fig. 13")
		},
		func() (*bench.Table, error) { return bench.RunNetworkSize(cfg, nil, r33) },
		func() (*bench.Table, error) { return bench.RunPacketSize(cfg, r33) },
		func() (*bench.Table, error) { return bench.RunStepBreakdown(cfg, nil, r60) },
		func() (*bench.Table, error) { return bench.RunCompressionComparison(cfg) },
		func() (*bench.Table, error) { return bench.RunQuadInfluence(cfg) },
		func() (*bench.Table, error) { return bench.RunTreecutAblation(cfg, r33) },
		func() (*bench.Table, error) { return bench.RunFilterLimitAblation(cfg, r33) },
		func() (*bench.Table, error) { return bench.RunIncrementalFilter(cfg, 0, 0) },
		func() (*bench.Table, error) { return bench.RunRelatedWork(cfg) },
		func() (*bench.Table, error) { return bench.RunLifetime(cfg) },
		func() (*bench.Table, error) { return bench.RunResponseTime(cfg) },
		func() (*bench.Table, error) { return bench.RunMemory(cfg) },
		func() (*bench.Table, error) { return bench.RunEnergyLifetime(cfg) },
	}
	root := o.rec.begin("bench.experiments", -1, 0)
	tables := make([]*bench.Table, len(exps))
	for i, run := range exps {
		var err error
		d := o.rec.timed("bench.exp."+suiteIDs[i], root, int64(i), func() { tables[i], err = run() })
		if err != nil {
			return nil, err
		}
		rep.set("bench.exp_ms."+suiteIDs[i], d.Seconds()*1e3)
	}
	o.rec.end(root)
	rep.attempted += len(suiteIDs)
	if renderSuite(o, tables) != ref {
		rep.failed += len(suiteIDs)
	}
	return rep, nil
}
