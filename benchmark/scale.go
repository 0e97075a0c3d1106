package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"time"

	"sensjoin/internal/core"
	"sensjoin/internal/field"
	"sensjoin/internal/routing"
	"sensjoin/internal/topology"
	"sensjoin/internal/workload"
)

// sim_scale: the X7 cell at 100 000 nodes on the sharded engine with
// parallel set-up, pass after pass. Every pass builds a fresh private
// deployment, so set-up is measured as often as execution.

const (
	scaleShards  = 2
	scaleWorkers = 2
	// scaleTopology seeds the node placement. It is fixed, and -seed
	// drives the sensor fields instead (what the nodes read), for two
	// reasons. Placement decides the tree and with it the cost of a pass,
	// which would put the choice of seed into every comparison. And not
	// every placement seed works: with seed 2 the corner base station has
	// no node in range, topology's repair then moves all 100 000 nodes
	// into one radio disk, and the neighbour scan of that single grid
	// cell is quadratic — the pass does not finish in ten minutes.
	scaleTopology = 42
)

// scaleFacts are the simulated statistics of one pass. They depend on
// the inputs only, never on the host, so they must repeat exactly from
// pass to pass and match the golden file.
type scaleFacts struct {
	ExternalEvents       int64   `json:"external_events"`
	SensEvents           int64   `json:"sens_events"`
	ExternalBytesPerNode float64 `json:"external_bytes_per_node"`
	SensBytesPerNode     float64 `json:"sens_bytes_per_node"`
	ExternalCount        float64 `json:"external_count"`
	SensCount            float64 `json:"sens_count"`
	SensResponseS        float64 `json:"sens_response_s"`
	Complete             bool    `json:"complete"`
}

// scalePass is one pass: its stage times in seconds, by span name, and
// what it cost the process.
type scalePass struct {
	stage  map[string]float64
	facts  scaleFacts
	use    usage
	peakMB float64
}

func (p scalePass) setup() float64 {
	return p.stage["topology.generate"] + p.stage["field.env"] + p.stage["routing.build_tree"] +
		p.stage["core.new_runner"] + p.stage["workload.calibrate"]
}

func (p scalePass) runs() float64 { return p.stage["core.run.external"] + p.stage["core.run.sens"] }

func runScalePass(o options, rec *recorder, shards int, op int64) (scalePass, error) {
	n := o.sizes.scaleNodes
	p := scalePass{stage: map[string]float64{}}
	resetPeakRSS()
	before := readUsage()
	root := rec.begin("pass", -1, op)
	stage := func(name string, fn func()) {
		p.stage[name] = rec.timed(name, root, op, fn).Seconds()
	}

	var dep *topology.Deployment
	var err error
	stage("topology.generate", func() {
		// Repair, not rejection sampling: at constant density the chance
		// that every boundary node connects vanishes with n.
		dep, err = topology.GenerateParallel(topology.Config{
			Nodes: n, Area: topology.ScaledArea(n), Range: 50, Seed: scaleTopology, Repair: true,
		}, scaleWorkers)
	})
	if err != nil {
		return p, err
	}
	var env *field.Environment
	stage("field.env", func() { env = field.StandardEnvironment(dep.Area, o.seed+1000) })
	var tree *routing.Tree
	stage("routing.build_tree", func() { tree = routing.BuildTreeParallel(dep.Neighbors, topology.BaseStation, scaleWorkers) })
	var r *core.Runner
	stage("core.new_runner", func() {
		r = core.NewRunnerFromSetup(dep, env, tree, core.SetupConfig{Shards: shards, SetupWorkers: scaleWorkers})
	})
	var src string
	stage("workload.calibrate", func() {
		delta, _ := workload.Calibrate(r, workload.Ratio33(), 0.01)
		src = workload.CountQuery(delta)
	})

	run := func(name string, m core.Method) (res *core.Result, events int64, bytesPerNode float64, err error) {
		r.Stats.Reset()
		steps := r.Sim.Steps()
		stage(name, func() { res, err = r.Run(src, m, 0) })
		if err == nil && len(res.Rows) != 1 {
			err = fmt.Errorf("sim_scale: COUNT by %s returned %d rows, want 1", m.Name(), len(res.Rows))
		}
		return res, r.Sim.Steps() - steps, float64(r.Stats.TotalTxBytes(m.Phases()...)) / float64(n), err
	}
	f := &p.facts
	ext, extEvents, extBytes, err := run("core.run.external", core.External{})
	if err != nil {
		return p, err
	}
	sens, sensEvents, sensBytes, err := run("core.run.sens", core.NewSENSJoin())
	if err != nil {
		return p, err
	}
	rec.end(root)
	f.ExternalEvents, f.ExternalBytesPerNode, f.ExternalCount = extEvents, extBytes, ext.Rows[0][0]
	f.SensEvents, f.SensBytesPerNode, f.SensCount = sensEvents, sensBytes, sens.Rows[0][0]
	f.SensResponseS = sens.ResponseTime
	f.Complete = ext.Complete && sens.Complete

	p.use = readUsage().minus(before)
	p.peakMB = peakRSSMB()
	return p, nil
}

// golden loads the stored facts for (nodes, seed). The first run of a
// new seed has nothing to compare with: it stores what it saw (after
// checking that the passes agree with one another and that the two
// join methods count the same pairs) and later runs compare with that.
func golden(o options, seen scaleFacts) (scaleFacts, error) {
	path := filepath.Join(o.outDir, "golden", fmt.Sprintf("sim_scale-n%d-seed%d.json", o.sizes.scaleNodes, o.seed))
	b, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		if b, err = json.MarshalIndent(seen, "", "  "); err != nil {
			return seen, err
		}
		if err = os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			return seen, err
		}
		fmt.Fprintf(os.Stderr, "sim_scale: no golden for this seed yet, writing %s\n", path)
		return seen, os.WriteFile(path, append(b, '\n'), 0o644)
	}
	if err != nil {
		return seen, err
	}
	var want scaleFacts
	return want, json.Unmarshal(b, &want)
}

func runSimScale(o options) (*report, error) {
	rep := &report{values: map[string]float64{}}

	// The ramp: two unmeasured passes at full load (3-5 s). A count, not
	// a time, because every pass leaves ≈30 MB behind (workload's
	// calibration cache keeps each private deployment alive), so the
	// resident set of a measured pass depends on how many came before.
	for i := 0; i < 2; i++ {
		if _, err := runScalePass(o, nil, scaleShards, 0); err != nil {
			return nil, err
		}
	}

	// The window. A traced run records spans on every other pass.
	var plain, traced []scalePass
	start := time.Now()
	for i := 0; time.Since(start) < o.seconds || len(plain) == 0 || (o.traced() && len(traced) == 0); i++ {
		rec := o.rec
		if i%2 == 0 {
			rec = nil
		}
		p, err := runScalePass(o, rec, scaleShards, int64(i))
		if err != nil {
			return nil, err
		}
		if rec == nil {
			plain = append(plain, p)
		} else {
			traced = append(traced, p)
		}
	}
	passes := append(append([]scalePass(nil), plain...), traced...)

	// The oracle: every pass saw the same simulated statistics, they
	// equal the golden ones, and both methods count the same pairs.
	want, err := golden(o, passes[0].facts)
	if err != nil {
		return nil, err
	}
	for _, p := range passes {
		events := int(p.facts.ExternalEvents + p.facts.SensEvents)
		rep.attempted += events
		if p.facts != want || !p.facts.Complete || p.facts.ExternalCount != p.facts.SensCount {
			if rep.failed == 0 {
				fmt.Fprintf(os.Stderr, "sim_scale: a pass saw %+v, want %+v with equal counts\n", p.facts, want)
			}
			rep.failed += events
		}
	}

	events := float64(want.ExternalEvents + want.SensEvents)

	runs := collect(plain, scalePass.runs)
	if !o.traced() {
		setups := collect(plain, scalePass.setup)
		rep.set("ops_per_s", events*float64(len(plain))/sum(runs))
		rep.set("op_p50_ms", median(runs)*1e3)
		rep.set("alloc_kb_per_op", mean(collect(plain, func(p scalePass) float64 { return float64(p.use.allocBytes) }))/1024/events)
		// The first five passes only: a fast host fits more passes into
		// the window, and each starts ≈30 MB higher than the one before.
		rep.set("peak_rss_mb", median(collect(plain[:min(5, len(plain))], func(p scalePass) float64 { return p.peakMB })))
		rep.set("setup_s", median(setups))
		fmt.Fprintf(os.Stderr, "window: %d passes, run seconds %.3f, set-up seconds %.3f\n", len(plain), runs, setups)
		return rep, nil
	}

	stageMS := func(name string) float64 {
		return median(collect(traced, func(p scalePass) float64 { return p.stage[name] })) * 1e3
	}
	rep.set("topology.generate_ms", stageMS("topology.generate"))
	rep.set("field.env_ms", stageMS("field.env"))
	rep.set("routing.build_tree_ms", stageMS("routing.build_tree"))
	rep.set("core.new_runner_ms", stageMS("core.new_runner"))
	rep.set("workload.calibrate_ms", stageMS("workload.calibrate"))
	rep.set("core.external_run_ms", stageMS("core.run.external"))
	rep.set("core.sens_run_ms", stageMS("core.run.sens"))
	rep.set("netsim.events_per_s.external", float64(want.ExternalEvents)/(stageMS("core.run.external")/1e3))
	rep.set("netsim.events_per_s.sens", float64(want.SensEvents)/(stageMS("core.run.sens")/1e3))
	rep.set("stats.radio_bytes_per_node.external", want.ExternalBytesPerNode)
	rep.set("stats.radio_bytes_per_node.sens", want.SensBytesPerNode)
	rep.set("core.sim_response_s.sens", want.SensResponseS)
	rep.set("harness.trace_overhead_share", 1-median(runs)/median(collect(traced, scalePass.runs)))
	var use usage
	for _, p := range traced {
		use = use.plus(p.use)
	}
	runtimeLayer(rep, use, int(events)*len(traced))

	// One pass on the classic single-heap engine against the sharded ones.
	classic, err := runScalePass(o, nil, 1, 0)
	if err != nil {
		return nil, err
	}
	rep.attempted += int(events)
	if classic.facts != want {
		fmt.Fprintf(os.Stderr, "sim_scale: the classic engine saw %+v, want %+v\n", classic.facts, want)
		rep.failed += int(events)
	}
	rep.set("netsim.shard_speedup", classic.runs()/median(collect(passes, scalePass.runs)))
	return rep, nil
}
