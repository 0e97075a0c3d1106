package bench

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"sensjoin/internal/compress"
	"sensjoin/internal/core"
	"sensjoin/internal/field"
	"sensjoin/internal/geom"
	"sensjoin/internal/metrics"
	"sensjoin/internal/netsim"
	"sensjoin/internal/stats"
	"sensjoin/internal/topology"
	"sensjoin/internal/trace"
	"sensjoin/internal/workload"
)

// Config parameterizes the experiments. The zero value reproduces the
// paper's default setting: 1500 nodes on 1050x1050 m, 50 m range, 48-byte
// packets, 5% of the nodes in the result.
type Config struct {
	// Nodes is the sensor node count.
	Nodes int
	// Seed drives placement and fields.
	Seed int64
	// MaxPacket is the maximum packet size in bytes.
	MaxPacket int
	// Fractions is the swept fraction of nodes in the result (Fig. 10).
	Fractions []float64
	// DefaultFraction is the fraction used where the paper fixes 5%.
	DefaultFraction float64
	// Parallel is the worker count for experiment and sweep-cell
	// fan-out (see pool.go); 0 or 1 runs everything sequentially.
	// Output is byte-identical for every value.
	Parallel int
	// Audit makes every execution self-audit against its journal
	// (conservation, reconciliation, slot order, filter soundness);
	// violations turn into experiment errors. Tables are unchanged —
	// tracing is observation, not interference.
	Audit bool
	// Metrics attaches every runner (event loop, radio, reliable
	// transport, protocol spans), the shared deployment cache and the
	// harness itself to live instruments on this registry (see
	// internal/metrics and `experiments -serve`). Nil — the default —
	// keeps every hook a no-op and the radio hot path allocation-free.
	// Rendered tables are byte-identical either way.
	Metrics *metrics.Registry
	// Progress receives per-experiment sweep-cell completion updates
	// (the -progress flag and the /progress endpoint); nil disables.
	// Progress output never touches stdout.
	Progress *Progress

	// hm holds the harness instruments; the zero value is a no-op.
	hm harnessMetrics
	// leases are the runner pools of the All or Run* call this
	// configuration was defaulted for; All hands its own to every
	// experiment it runs.
	leases *leases
}

func (c Config) withDefaults() Config {
	if c.Nodes == 0 {
		c.Nodes = 1500
	}
	if c.Seed == 0 {
		c.Seed = 42
	}
	if c.MaxPacket == 0 {
		c.MaxPacket = 48
	}
	if len(c.Fractions) == 0 {
		c.Fractions = []float64{0.01, 0.03, 0.05, 0.09, 0.25, 0.40, 0.60, 0.80, 0.90}
	}
	if c.DefaultFraction == 0 {
		c.DefaultFraction = 0.05
	}
	if c.leases == nil {
		p := max(c.Parallel, 1)
		// All runs p experiments at once, each with up to p cells.
		c.leases = &leases{capacity: p * (p + 1), pools: make(map[core.SetupConfig]*core.RunnerPool)}
	}
	if c.Metrics != nil {
		c.hm = newHarnessMetrics(c.Metrics)
		core.SetCacheMetrics(c.Metrics)
		g := c.Metrics.Gauge("sensjoin_bench_workers_busy", "Fanout jobs currently executing")
		fanoutBusy.Store(g)
	}
	return c
}

// leases holds the runner pools of one All or Run* call, one per
// deployment and radio the call touches (E5 sweeps the node count, E6 the
// packet size). Experiments and sweep cells lease from them, so a call
// builds about as many runners as it has workers rather than one per
// cell, and every later lease starts on warm storage.
type leases struct {
	capacity int
	mu       sync.Mutex
	pools    map[core.SetupConfig]*core.RunnerPool
}

func (l *leases) pool(cfg core.SetupConfig) (*core.RunnerPool, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if p, ok := l.pools[cfg]; ok {
		return p, nil
	}
	p, err := core.NewRunnerPool(cfg, l.capacity)
	if err != nil {
		return nil, err
	}
	l.pools[cfg] = p
	return p, nil
}

// setupFor is the deployment and radio every harness runner is built
// from; maxPacket 0 keeps the default radio.
func setupFor(nodes int, seed int64, maxPacket int) core.SetupConfig {
	radio := netsim.DefaultRadio()
	if maxPacket > 0 {
		radio.MaxPacket = maxPacket
	}
	return core.SetupConfig{Nodes: nodes, Seed: seed, Radio: radio}
}

// privateRunner builds a runner no pool will see. It is the harness's
// only door to core.NewRunner (scripts/check.sh greps for others), for
// the artefact experiments that keep one runner for their whole run
// outside any All call (X8, X9's oracle). Loss, reliable transport,
// churn and a journal are not a reason: they are an execution's options,
// gone when it ends, and reset undoes the faults and the healed tree
// they leave.
func privateRunner(nodes int, seed int64, maxPacket int) (*core.Runner, error) {
	return core.NewRunner(setupFor(nodes, seed, maxPacket))
}

// lease takes a runner for this configuration out of the call's pools;
// done ends the lease.
func (c Config) lease() (r *core.Runner, done func(), err error) {
	p, err := c.leases.pool(setupFor(c.Nodes, c.Seed, c.MaxPacket))
	if err != nil {
		return nil, nil, err
	}
	if r, err = p.Get(); err != nil {
		return nil, nil, err
	}
	if c.Metrics != nil {
		r.EnableMetrics(c.Metrics)
	}
	return r, func() { p.Put(r) }, nil
}

// RunTraced executes one calibrated SENS-Join query at the default
// fraction with the execution journal enabled and returns the journal
// plus any audit violations (none on a correct run). The journal backs
// `experiments -trace`.
func RunTraced(cfg Config) (*trace.Journal, []trace.Violation, error) {
	cfg = cfg.withDefaults()
	r, done, err := cfg.lease()
	if err != nil {
		return nil, nil, err
	}
	defer done()
	rec := trace.New()
	preset := workload.Ratio33()
	delta, _ := workload.Calibrate(r, preset, cfg.DefaultFraction)
	res, err := r.Run(preset.Build(delta), core.NewSENSJoin(), 0, core.Traced(rec), core.Audited())
	if err != nil {
		return nil, nil, err
	}
	return rec.Journal(), res.Violations, nil
}

// run executes src on r with method m at time t. It is the harness's
// one way to execute a query, so that under Audit every execution is
// audited and its first violation fails the experiment.
func (c Config) run(r *core.Runner, src string, m core.Method, t float64, opts ...core.RunOption) (*core.Result, error) {
	if c.Audit {
		opts = append(opts, core.Audited())
	}
	res, err := r.Run(src, m, t, opts...)
	if err == nil && len(res.Violations) > 0 {
		err = fmt.Errorf("bench: %s audit: %d violation(s), first: %s", m.Name(), len(res.Violations), res.Violations[0])
	}
	return res, err
}

// runTotal executes one method and returns its total packet count over
// its own phases and its result, run WithoutRows: the suite reads a
// result's figures, not its table.
func (c Config) runTotal(r *core.Runner, src string, m core.Method) (int64, *core.Result, error) {
	r.Stats.Reset()
	res, err := c.run(r, src, m, 0, core.WithoutRows())
	if err != nil {
		return 0, nil, err
	}
	return r.Stats.TotalTx(m.Phases()...), res, nil
}

// pair runs src on r with the external join, then SENS-Join, and returns
// their packet totals.
func (c Config) pair(r *core.Runner, src string) (ext, sens int64, err error) {
	if ext, _, err = c.runTotal(r, src, core.External{}); err != nil {
		return 0, 0, err
	}
	sens, _, err = c.runTotal(r, src, core.NewSENSJoin())
	return ext, sens, err
}

// RunOverallSavings reproduces Fig. 10: overall transmissions of the
// external join and SENS-Join while the fraction of nodes in the result
// sweeps; one call per join-attribute preset (33% for 10(a), 60% for
// 10(b)).
func RunOverallSavings(cfg Config, preset workload.Preset) (*Table, error) {
	cfg = cfg.withDefaults()
	id := "E1a / Fig. 10(a)"
	if preset.Ratio() > 0.5 {
		id = "E1b / Fig. 10(b)"
	}
	t := &Table{
		ID:     id,
		Title:  fmt.Sprintf("overall transmissions vs result fraction (%s, %d nodes)", preset.Name, cfg.Nodes),
		Header: []string{"target f", "actual f", "external", "sens-join", "savings", "winner"},
	}
	// Each fraction is an independent sweep cell on a leased runner: a
	// lease starts from the state of a new runner (clock, counters and
	// Stats at zero), so a cell's observables do not depend on which
	// cells its runner served before, or on the worker count.
	type cell struct {
		actual    float64
		ext, sens int64
	}
	cells, err := Fanout(cfg.Parallel, cellJobs(cfg, shortID(id), cfg.Fractions, func(f float64) (cell, error) {
		r, done, err := cfg.lease()
		if err != nil {
			return cell{}, err
		}
		defer done()
		delta, actual := workload.Calibrate(r, preset, f)
		src := preset.Build(delta)
		ext, sens, err := cfg.pair(r, src)
		if err != nil {
			return cell{}, err
		}
		return cell{actual: actual, ext: ext, sens: sens}, nil
	}))
	if err != nil {
		return nil, err
	}
	var bestSavings float64
	var breakEven float64 = -1
	for i, f := range cfg.Fractions {
		c := cells[i]
		s := savings(c.ext, c.sens)
		if s > bestSavings {
			bestSavings = s
		}
		winner := "sens-join"
		if c.sens >= c.ext {
			winner = "external"
			if breakEven < 0 {
				breakEven = c.actual
			}
		}
		t.AddRow(fmtFrac(f), fmtFrac(c.actual), fmtInt(c.ext), fmtInt(c.sens), fmtFrac(s), winner)
		t.AddTx(c.ext + c.sens)
	}
	t.Note("max savings %.0f%% (paper: up to 80%% at 33%%, ~67%% at 60%%)", 100*bestSavings)
	if breakEven >= 0 {
		t.Note("break-even near f = %.0f%% (paper: 60-80%%)", 100*breakEven)
	} else {
		t.Note("no break-even within the swept range")
	}
	return t, nil
}

// RunPerNodeSavings reproduces Fig. 11: per-node transmissions versus the
// node's descendant count in the routing tree, at the default fraction.
func RunPerNodeSavings(cfg Config, preset workload.Preset) (*Table, error) {
	cfg = cfg.withDefaults()
	r, done, err := cfg.lease()
	if err != nil {
		return nil, err
	}
	defer done()
	id := "E2a / Fig. 11(a)"
	if preset.Ratio() > 0.5 {
		id = "E2b / Fig. 11(b)"
	}
	delta, actual := workload.Calibrate(r, preset, cfg.DefaultFraction)
	src := preset.Build(delta)

	extTotal, _, err := cfg.runTotal(r, src, core.External{})
	if err != nil {
		return nil, err
	}
	extPer := r.Stats.PerNodeTx(core.ExternalPhases...)
	sensTotal, _, err := cfg.runTotal(r, src, core.NewSENSJoin())
	if err != nil {
		return nil, err
	}
	sensPer := r.Stats.PerNodeTx(core.SENSPhases...)

	bounds := []int{0, 2, 5, 10, 20, 50, 100, 1 << 30}
	extMean, counts := stats.LoadByDescendants(extPer, r.Tree.Descendants, bounds)
	sensMean, _ := stats.LoadByDescendants(sensPer, r.Tree.Descendants, bounds)

	t := &Table{
		ID:     id,
		Title:  fmt.Sprintf("per-node transmissions vs descendants (%s, f=%.1f%%)", preset.Name, 100*actual),
		Header: []string{"descendants <=", "nodes", "external avg", "sens avg", "reduction"},
	}
	for i, up := range bounds {
		if counts[i] == 0 {
			continue
		}
		label := fmtInt(int64(up))
		if up == 1<<30 {
			label = "max"
		}
		red := "-"
		if sensMean[i] > 0 {
			red = fmt.Sprintf("%.1fx", extMean[i]/sensMean[i])
		}
		t.AddRow(label, fmtInt(int64(counts[i])),
			fmt.Sprintf("%.1f", extMean[i]), fmt.Sprintf("%.1f", sensMean[i]), red)
	}
	// Most-loaded node comparison (the network-lifetime metric).
	maxExt := maxOf(extPer)
	maxSens := maxOf(sensPer)
	t.Note("most-loaded node: external %d vs sens %d packets = %s reduction (paper: >10x at 33%%, >75%% at 60%%)",
		maxExt, maxSens, fmtFactor(maxExt, maxSens))
	t.AddTx(extTotal + sensTotal)
	return t, nil
}

func maxOf(v []int64) int64 {
	var m int64
	for i := 1; i < len(v); i++ { // skip the powered base station
		if v[i] > m {
			m = v[i]
		}
	}
	return m
}

// RunRatioSweep reproduces Figs. 12 and 13: total transmissions as the
// ratio of join attributes to attributes overall varies, at the default
// fraction.
func RunRatioSweep(cfg Config, presets []workload.Preset, id string) (*Table, error) {
	cfg = cfg.withDefaults()
	t := &Table{
		ID:     id,
		Title:  fmt.Sprintf("transmissions vs join-attribute ratio (f=%.0f%%, %d nodes)", 100*cfg.DefaultFraction, cfg.Nodes),
		Header: []string{"ratio", "external", "sens-join", "savings"},
	}
	type cell struct {
		ext, sens int64
	}
	cells, err := Fanout(cfg.Parallel, cellJobs(cfg, shortID(id), presets, func(p workload.Preset) (cell, error) {
		r, done, err := cfg.lease()
		if err != nil {
			return cell{}, err
		}
		defer done()
		delta, _ := workload.Calibrate(r, p, cfg.DefaultFraction)
		src := p.Build(delta)
		ext, sens, err := cfg.pair(r, src)
		if err != nil {
			return cell{}, err
		}
		return cell{ext: ext, sens: sens}, nil
	}))
	if err != nil {
		return nil, err
	}
	prev := 2.0 // presets are ordered high ratio -> low; savings must grow
	monotone := true
	for i, p := range presets {
		c := cells[i]
		s := savings(c.ext, c.sens)
		t.AddRow(p.Name, fmtInt(c.ext), fmtInt(c.sens), fmtFrac(s))
		t.AddTx(c.ext + c.sens)
		if prev <= 1.0 && s < prev-0.02 {
			monotone = false
		}
		prev = s
	}
	if monotone {
		t.Note("savings shrink as the join-attribute ratio grows, but stay positive even at 100%% (quadtree effect) — matches the paper")
	} else {
		t.Note("savings not monotone across ratios — deviation from the paper")
	}
	return t, nil
}

// RunNetworkSize reproduces Fig. 14: total transmissions as the network
// grows at constant density.
func RunNetworkSize(cfg Config, sizes []int, preset workload.Preset) (*Table, error) {
	cfg = cfg.withDefaults()
	if len(sizes) == 0 {
		sizes = []int{1000, 1500, 2000, 2500}
	}
	t := &Table{
		ID:     "E5 / Fig. 14",
		Title:  fmt.Sprintf("transmissions vs network size (%s, f=%.0f%%)", preset.Name, 100*cfg.DefaultFraction),
		Header: []string{"nodes", "external", "sens-join", "savings"},
	}
	type cell struct {
		ext, sens int64
	}
	cells, err := Fanout(cfg.Parallel, cellJobs(cfg, "E5", sizes, func(n int) (cell, error) {
		c := cfg
		c.Nodes = n
		r, done, err := c.lease()
		if err != nil {
			return cell{}, err
		}
		defer done()
		delta, _ := workload.Calibrate(r, preset, cfg.DefaultFraction)
		src := preset.Build(delta)
		ext, sens, err := c.pair(r, src)
		if err != nil {
			return cell{}, err
		}
		return cell{ext: ext, sens: sens}, nil
	}))
	if err != nil {
		return nil, err
	}
	var firstS, lastS float64
	for i, n := range sizes {
		c := cells[i]
		s := savings(c.ext, c.sens)
		t.AddRow(fmtInt(int64(n)), fmtInt(c.ext), fmtInt(c.sens), fmtFrac(s))
		t.AddTx(c.ext + c.sens)
		if i == 0 {
			firstS = s
		}
		lastS = s
	}
	t.Note("savings at %d nodes: %.1f%%; at %d nodes: %.1f%% (paper: slightly superlinear growth)",
		sizes[0], 100*firstS, sizes[len(sizes)-1], 100*lastS)
	return t, nil
}

// RunPacketSize reproduces the §VI-A packet-size experiment: with
// 124-byte packets the external join gains more in total packets, but
// SENS-Join still unburdens the nodes near the root by an order of
// magnitude.
func RunPacketSize(cfg Config, preset workload.Preset) (*Table, error) {
	cfg = cfg.withDefaults()
	t := &Table{
		ID:     "E6 / §VI-A packet size",
		Title:  fmt.Sprintf("influence of the maximum packet size (%s, f=%.0f%%)", preset.Name, 100*cfg.DefaultFraction),
		Header: []string{"packet", "external", "sens-join", "savings", "max-node ext", "max-node sens", "max-node reduction"},
	}
	for _, size := range []int{48, 124} {
		c := cfg
		c.MaxPacket = size
		r, done, err := c.lease()
		if err != nil {
			return nil, err
		}
		delta, _ := workload.Calibrate(r, preset, cfg.DefaultFraction)
		src := preset.Build(delta)
		ext, _, err := c.runTotal(r, src, core.External{})
		if err != nil {
			return nil, err
		}
		extPer := r.Stats.PerNodeTx(core.ExternalPhases...)
		sens, _, err := c.runTotal(r, src, core.NewSENSJoin())
		if err != nil {
			return nil, err
		}
		sensPer := r.Stats.PerNodeTx(core.SENSPhases...)
		done()
		me, ms := maxOf(extPer), maxOf(sensPer)
		t.AddRow(fmt.Sprintf("%dB", size), fmtInt(ext), fmtInt(sens),
			fmtFrac(savings(ext, sens)), fmtInt(me), fmtInt(ms), fmtFactor(me, ms))
		t.AddTx(ext + sens)
	}
	t.Note("paper: at 124B the external join profits more overall, but near-root nodes still see ~an order of magnitude fewer packets with SENS-Join")
	return t, nil
}

// RunStepBreakdown reproduces Fig. 15: SENS-Join's cost per step for
// several result fractions, against the external join.
func RunStepBreakdown(cfg Config, fractions []float64, preset workload.Preset) (*Table, error) {
	cfg = cfg.withDefaults()
	if len(fractions) == 0 {
		fractions = []float64{0.03, 0.05, 0.09, 0.25}
	}
	r, done, err := cfg.lease()
	if err != nil {
		return nil, err
	}
	defer done()
	t := &Table{
		ID:     "E7 / Fig. 15",
		Title:  fmt.Sprintf("cost per SENS-Join step (%s, %d nodes)", preset.Name, cfg.Nodes),
		Header: []string{"run", "ja-collect", "filter-dissem", "final-collect", "total"},
	}
	// External reference at the default fraction.
	delta, _ := workload.Calibrate(r, preset, cfg.DefaultFraction)
	ext, _, err := cfg.runTotal(r, preset.Build(delta), core.External{})
	if err != nil {
		return nil, err
	}
	t.AddRow(fmt.Sprintf("external (f=%.0f%%)", 100*cfg.DefaultFraction), "-", "-", "-", fmtInt(ext))
	t.AddTx(ext)

	var jaCosts []int64
	for _, f := range fractions {
		delta, actual := workload.Calibrate(r, preset, f)
		src := preset.Build(delta)
		r.Stats.Reset()
		if _, err := cfg.run(r, src, core.NewSENSJoin(), 0, core.WithoutRows()); err != nil {
			return nil, err
		}
		ja := r.Stats.TotalTx(core.PhaseJACollect)
		fd := r.Stats.TotalTx(core.PhaseFilterDissem)
		fc := r.Stats.TotalTx(core.PhaseFinalCollect)
		jaCosts = append(jaCosts, ja)
		t.AddRow(fmt.Sprintf("sens-join (f=%.0f%%)", 100*actual),
			fmtInt(ja), fmtInt(fd), fmtInt(fc), fmtInt(ja+fd+fc))
		t.AddTx(ja + fd + fc)
	}
	fixed := true
	for _, c := range jaCosts[1:] {
		if c != jaCosts[0] {
			fixed = false
		}
	}
	if fixed {
		t.Note("Join-Attribute-Collection cost is independent of the result fraction — matches the paper")
	} else {
		t.Note("Join-Attribute-Collection cost varies: %v — deviation from the paper", jaCosts)
	}
	return t, nil
}

// RunCompressionComparison reproduces the §VI-B in-text experiment:
// Join-Attribute-Collection packets for the raw representation, zlib,
// the bzip2-like BWZ, and the quadtree (temperature + coordinates, i.e.
// three join attributes).
func RunCompressionComparison(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	r, done, err := cfg.lease()
	if err != nil {
		return nil, err
	}
	defer done()
	preset := workload.Ratio60() // join attrs: temp, x, y
	delta, _ := workload.Calibrate(r, preset, cfg.DefaultFraction)
	src := preset.Build(delta)

	t := &Table{
		ID:     "E8 / §VI-B compression",
		Title:  fmt.Sprintf("collection packets by representation (3 join attrs, %d nodes)", cfg.Nodes),
		Header: []string{"representation", "ja-collect packets", "vs raw"},
	}
	reps := []core.Rep{
		core.RawRep{},
		core.CompressedRep{Codec: compress.BWZ{}},
		core.CompressedRep{Codec: compress.Zlib{}},
		core.QuadRep{},
	}
	var raw int64
	for _, rep := range reps {
		r.Stats.Reset()
		m := &core.SENSJoin{Options: core.Options{Rep: rep}}
		if _, err := cfg.run(r, src, m, 0, core.WithoutRows()); err != nil {
			return nil, err
		}
		ja := r.Stats.TotalTx(core.PhaseJACollect)
		if _, ok := rep.(core.RawRep); ok {
			raw = ja
		}
		rel := "-"
		if raw > 0 {
			rel = fmt.Sprintf("%.0f%%", 100*float64(ja)/float64(raw))
		}
		name := rep.Name()
		if name == "raw" {
			name = "none (raw tuples)"
		}
		t.AddRow(name, fmtInt(ja), rel)
		t.AddTx(ja)
	}
	t.Note("paper (1500 nodes): none 5619, bzip2 5666 (101%%), zlib 4571 (81%%), quadtree 2762 (49%%)")
	return t, nil
}

// RunQuadInfluence reproduces Fig. 16: external join vs SENS_No-Quad vs
// SENS-Join at a ~4%% result fraction.
func RunQuadInfluence(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	r, done, err := cfg.lease()
	if err != nil {
		return nil, err
	}
	defer done()
	preset := workload.Ratio60()
	delta, actual := workload.Calibrate(r, preset, 0.04)
	src := preset.Build(delta)

	t := &Table{
		ID:     "E9 / Fig. 16",
		Title:  fmt.Sprintf("influence of the quadtree representation (f=%.1f%%, %d nodes)", 100*actual, cfg.Nodes),
		Header: []string{"method", "ja-collect", "total"},
	}
	ext, _, err := cfg.runTotal(r, src, core.External{})
	if err != nil {
		return nil, err
	}
	t.AddRow("external join", "-", fmtInt(ext))
	t.AddTx(ext)

	var noquadJA, quadJA int64
	for _, m := range []core.Method{
		&core.SENSJoin{Options: core.Options{Rep: core.RawRep{}}},
		core.NewSENSJoin(),
	} {
		r.Stats.Reset()
		if _, err := cfg.run(r, src, m, 0, core.WithoutRows()); err != nil {
			return nil, err
		}
		ja := r.Stats.TotalTx(core.PhaseJACollect)
		total := r.Stats.TotalTx(core.SENSPhases...)
		name := "SENS_No-Quad"
		if m.Name() == "sens-join" {
			name = "SENS-Join"
			quadJA = ja
		} else {
			noquadJA = ja
		}
		t.AddRow(name, fmtInt(ja), fmtInt(total))
		t.AddTx(total)
	}
	t.Note("collection saves %.0f%% vs external without the quadtree (paper: ~38%%) and the quadtree roughly halves it again (here %.0f%% of no-quad)",
		100*(1-float64(noquadJA)/float64(ext)), 100*float64(quadJA)/float64(noquadJA))
	return t, nil
}

// RunTreecutAblation sweeps the Treecut threshold Dmax (design-choice
// discussion of §IV-E; 0 disables the mechanism).
func RunTreecutAblation(cfg Config, preset workload.Preset) (*Table, error) {
	cfg = cfg.withDefaults()
	r, done, err := cfg.lease()
	if err != nil {
		return nil, err
	}
	delta, _ := workload.Calibrate(r, preset, cfg.DefaultFraction)
	done() // the cells lease it next
	src := preset.Build(delta)
	t := &Table{
		ID:     "A1 / §IV-E Dmax",
		Title:  fmt.Sprintf("Treecut threshold ablation (%s, f=%.0f%%)", preset.Name, 100*cfg.DefaultFraction),
		Header: []string{"Dmax", "ja-collect", "total"},
	}
	type cell struct {
		label     string
		ja, total int64
	}
	cells, err := Fanout(cfg.Parallel, cellJobs(cfg, "A1", []int{-1, 10, 30, 60, 120}, func(dmax int) (cell, error) {
		opt := core.Options{Dmax: dmax}
		label := fmtInt(int64(dmax))
		if dmax < 0 {
			opt = core.Options{DisableTreecut: true}
			label = "off"
		}
		cr, crDone, err := cfg.lease()
		if err != nil {
			return cell{}, err
		}
		defer crDone()
		if _, err := cfg.run(cr, src, &core.SENSJoin{Options: opt}, 0, core.WithoutRows()); err != nil {
			return cell{}, err
		}
		return cell{label: label, ja: cr.Stats.TotalTx(core.PhaseJACollect), total: cr.Stats.TotalTx(core.SENSPhases...)}, nil
	}))
	if err != nil {
		return nil, err
	}
	for _, c := range cells {
		t.AddRow(c.label, fmtInt(c.ja), fmtInt(c.total))
		t.AddTx(c.total)
	}
	t.Note("the paper argues Dmax ~30B (below the packet payload) balances treecut savings against foregone filtering")
	return t, nil
}

// RunFilterLimitAblation sweeps the Selective-Filter-Forwarding memory
// limit (§IV-C; "off" disables pruning entirely).
func RunFilterLimitAblation(cfg Config, preset workload.Preset) (*Table, error) {
	cfg = cfg.withDefaults()
	r, done, err := cfg.lease()
	if err != nil {
		return nil, err
	}
	delta, _ := workload.Calibrate(r, preset, cfg.DefaultFraction)
	done() // the cells lease it next
	src := preset.Build(delta)
	t := &Table{
		ID:     "A2 / §IV-C filter memory",
		Title:  fmt.Sprintf("Selective Filter Forwarding ablation (%s, f=%.0f%%)", preset.Name, 100*cfg.DefaultFraction),
		Header: []string{"limit", "filter-dissem", "total"},
	}
	type cell struct {
		label     string
		fd, total int64
	}
	cells, err := Fanout(cfg.Parallel, cellJobs(cfg, "A2", []int{-1, 50, 500, 5000}, func(limit int) (cell, error) {
		opt := core.Options{FilterMemLimit: limit}
		label := fmtInt(int64(limit)) + "B"
		if limit < 0 {
			opt = core.Options{DisableSelectiveForwarding: true}
			label = "off"
		}
		cr, crDone, err := cfg.lease()
		if err != nil {
			return cell{}, err
		}
		defer crDone()
		if _, err := cfg.run(cr, src, &core.SENSJoin{Options: opt}, 0, core.WithoutRows()); err != nil {
			return cell{}, err
		}
		return cell{label: label, fd: cr.Stats.TotalTx(core.PhaseFilterDissem), total: cr.Stats.TotalTx(core.SENSPhases...)}, nil
	}))
	if err != nil {
		return nil, err
	}
	for _, c := range cells {
		t.AddRow(c.label, fmtInt(c.fd), fmtInt(c.total))
		t.AddTx(c.total)
	}
	t.Note("the paper argues the 500B limit barely hurts: the structure only outgrows it near the root, where pruning saves little anyway")
	return t, nil
}

// RunIncrementalFilter measures the extension experiment X1: filter
// dissemination bytes per round of a continuous query, full re-send vs
// incremental deltas (the paper's §VIII future work). A low-noise,
// slowly drifting environment provides the temporal correlation the idea
// exploits.
func RunIncrementalFilter(cfg Config, rounds int, period float64) (*Table, error) {
	cfg = cfg.withDefaults()
	if rounds <= 0 {
		rounds = 8
	}
	if period <= 0 {
		period = 30
	}
	preset := workload.Ratio60()

	run := func(m core.Method) ([]int64, int64, error) {
		r, done, err := cfg.lease()
		if err != nil {
			return nil, 0, err
		}
		defer done()
		r.Env = quietEnv(r, cfg.Seed)
		delta, _ := workload.Calibrate(r, preset, cfg.DefaultFraction)
		src := preset.Build(delta)
		var perRound []int64
		var prev int64
		for round := 0; round < rounds; round++ {
			if _, err := cfg.run(r, src, m, float64(round)*period, core.WithoutRows()); err != nil {
				return nil, 0, err
			}
			cur := r.Stats.TotalTxBytes(core.PhaseFilterDissem)
			perRound = append(perRound, cur-prev)
			prev = cur
		}
		return perRound, r.Stats.TotalTx(m.Phases()...), nil
	}

	full, fullTx, err := run(core.NewSENSJoin())
	if err != nil {
		return nil, err
	}
	incr, incrTx, err := run(core.NewContinuousSENSJoin())
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:     "X1 / §VIII future work",
		Title:  fmt.Sprintf("incremental filter dissemination, bytes per round (%d nodes, %.0f s period)", cfg.Nodes, period),
		Header: []string{"round", "full filter", "incremental", "saved"},
	}
	var sumFull, sumIncr int64
	for i := 0; i < rounds; i++ {
		t.AddRow(fmtInt(int64(i+1)), fmtInt(full[i]), fmtInt(incr[i]), fmtFrac(savings(full[i], incr[i])))
		sumFull += full[i]
		sumIncr += incr[i]
	}
	t.Note("total filter bytes: full %d vs incremental %d (%.0f%% saved); round 1 is identical by design",
		sumFull, sumIncr, 100*savings(sumFull, sumIncr))
	t.AddTx(fullTx + incrTx)
	return t, nil
}

// quietEnv builds the temporal-correlation-friendly environment.
func quietEnv(r *core.Runner, seed int64) *field.Environment {
	return field.QuietEnvironment(r.Dep.Area, seed+1000)
}

// RunRelatedWork measures the extension experiment X2: the specialized
// join methods of §II (mediated join of Coman et al., in-network
// semi-join) against the external join and SENS-Join, in the paper's
// general setting and in the mediated join's niche (members confined to
// a small far region, highly selective join). It verifies the paper's
// statement that the external join beats the specialized methods on
// arbitrary placements.
func RunRelatedWork(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	t := &Table{
		ID:     "X2 / §II related work",
		Title:  fmt.Sprintf("specialized join methods vs external and SENS-Join (%d nodes)", cfg.Nodes),
		Header: []string{"setting", "method", "packets", "vs external"},
	}
	methods := []core.Method{core.External{}, core.Mediated{}, core.SemiJoin{}, core.NewSENSJoin()}

	// General setting: arbitrary placements, default fraction.
	r, done, err := cfg.lease()
	if err != nil {
		return nil, err
	}
	preset := workload.Ratio33()
	delta, _ := workload.Calibrate(r, preset, cfg.DefaultFraction)
	src := preset.Build(delta)
	var extGeneral int64
	for _, m := range methods {
		pk, _, err := cfg.runTotal(r, src, m)
		if err != nil {
			return nil, err
		}
		if m.Name() == "external-join" {
			extGeneral = pk
		}
		t.AddRow("general", m.Name(), fmtInt(pk), fmt.Sprintf("%.0f%%", 100*float64(pk)/float64(extGeneral)))
		t.AddTx(pk)
	}
	done()

	// Niche setting: members clustered in a far region, selective join.
	r2, done, err := cfg.lease()
	if err != nil {
		return nil, err
	}
	defer done()
	far := r2.Dep.Area.Lerp(0.85, 0.85)
	radius := r2.Dep.Area.Width() / 8
	r2.Member = func(id topology.NodeID, rel string) bool {
		return geom.Dist(r2.Dep.Pos[id], far) < radius
	}
	nicheSrc := "SELECT A.temp, B.temp FROM Sensors A, Sensors B WHERE A.temp - B.temp > 5 ONCE"
	var extNiche int64
	for _, m := range methods {
		r2.Stats.Reset()
		if _, err := cfg.run(r2, nicheSrc, m, 0, core.WithoutRows()); err != nil {
			return nil, err
		}
		pk := r2.Stats.TotalTx(m.Phases()...)
		if m.Name() == "external-join" {
			extNiche = pk
		}
		t.AddRow("niche (clustered, selective)", m.Name(), fmtInt(pk), fmt.Sprintf("%.0f%%", 100*float64(pk)/float64(extNiche)))
		t.AddTx(pk)
	}
	t.Note("paper §VI: the external join outperforms the specialized methods on arbitrary placements; they only win with small, close regions and high selectivity")
	return t, nil
}

// RunLifetime measures the extension experiment X3: the network
// lifetime under repeated query rounds. The paper's conclusion claims
// the per-node savings "prolong the lifetime of the network
// significantly"; this experiment quantifies it. Lifetime is rounds
// until the first (most loaded) sensor node depletes a fixed radio
// energy budget under a CC2420-class model; the extension factor is
// budget-independent.
func RunLifetime(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	const batteryJ = 50.0 // radio share of a small battery; scale only
	t := &Table{
		ID:     "X3 / network lifetime",
		Title:  fmt.Sprintf("rounds until first node death (%.0f J radio budget, %d nodes)", batteryJ, cfg.Nodes),
		Header: []string{"workload", "method", "bottleneck J/round", "lifetime rounds", "extension"},
	}
	model := stats.CC2420Model()
	for _, preset := range []workload.Preset{workload.Ratio33(), workload.Ratio60()} {
		r, done, err := cfg.lease()
		if err != nil {
			return nil, err
		}
		delta, _ := workload.Calibrate(r, preset, cfg.DefaultFraction)
		src := preset.Build(delta)
		var extRounds int
		for _, m := range []core.Method{core.External{}, core.NewSENSJoin()} {
			r.Stats.Reset()
			if _, err := cfg.run(r, src, m, 0, core.WithoutRows()); err != nil {
				return nil, err
			}
			energy := r.Stats.PerNodeEnergy(model, m.Phases()...)
			rounds, dead := stats.LifetimeRounds(energy, batteryJ)
			_ = dead
			ext := "-"
			if m.Name() == "external-join" {
				extRounds = rounds
			} else if extRounds > 0 {
				ext = fmt.Sprintf("%.1fx", float64(rounds)/float64(extRounds))
			}
			bottleneck := 0.0
			for i := 1; i < len(energy); i++ {
				if energy[i] > bottleneck {
					bottleneck = energy[i]
				}
			}
			t.AddRow(preset.Name, m.Name(), fmt.Sprintf("%.4f", bottleneck), fmtInt(int64(rounds)), ext)
			t.AddTx(r.Stats.TotalTx(m.Phases()...))
		}
		done()
	}
	t.Note("paper conclusion: the most-loaded-node savings prolong the network lifetime significantly")
	return t, nil
}

// RunResponseTime measures the extension experiment X4: simulated
// response times of SENS-Join vs the external join across result
// fractions. The paper (§VII) bounds SENS-Join's response time by about
// twice the external join's: the pre-computation adds one collection
// wave (of smaller data) plus the filter dissemination.
func RunResponseTime(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	preset := workload.Ratio33()
	t := &Table{
		ID:     "X4 / §VII response time",
		Title:  fmt.Sprintf("simulated response time (%s, %d nodes)", preset.Name, cfg.Nodes),
		Header: []string{"fraction", "external (s)", "sens-join (s)", "ratio"},
	}
	type cell struct {
		actual      float64
		extT, sensT float64
		ext, sens   int64
	}
	cells, err := Fanout(cfg.Parallel, cellJobs(cfg, "X4", []float64{0.01, 0.05, 0.25, 0.60}, func(f float64) (cell, error) {
		r, done, err := cfg.lease()
		if err != nil {
			return cell{}, err
		}
		defer done()
		delta, actual := workload.Calibrate(r, preset, f)
		src := preset.Build(delta)
		ext, extRes, err := cfg.runTotal(r, src, core.External{})
		if err != nil {
			return cell{}, err
		}
		sens, sensRes, err := cfg.runTotal(r, src, core.NewSENSJoin())
		if err != nil {
			return cell{}, err
		}
		return cell{actual: actual, extT: extRes.ResponseTime, sensT: sensRes.ResponseTime, ext: ext, sens: sens}, nil
	}))
	if err != nil {
		return nil, err
	}
	worst := 0.0
	for _, c := range cells {
		ratio := c.sensT / c.extT
		if ratio > worst {
			worst = ratio
		}
		t.AddRow(fmtFrac(c.actual), fmt.Sprintf("%.1f", c.extT),
			fmt.Sprintf("%.1f", c.sensT), fmt.Sprintf("%.2fx", ratio))
		t.AddTx(c.ext + c.sens)
	}
	t.Note("worst ratio %.2fx (paper §VII: upper bounded by ~2x)", worst)
	return t, nil
}

// RunMemory measures the extension experiment X5: the per-node memory
// high-water marks of SENS-Join against the paper's bounds (§IV-B: Dmax
// per child for proxies; §IV-C: the configured limit for the subtree
// structure; §VII discusses the trade-off).
func RunMemory(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	r, done, err := cfg.lease()
	if err != nil {
		return nil, err
	}
	defer done()
	preset := workload.Ratio60()
	delta, actual := workload.Calibrate(r, preset, cfg.DefaultFraction)
	src := preset.Build(delta)
	m := core.NewSENSJoin()
	r.Stats.Reset()
	if _, err := cfg.run(r, src, m, 0, core.WithoutRows()); err != nil {
		return nil, err
	}
	maxChildren := 0
	for _, ch := range r.Tree.Children {
		if len(ch) > maxChildren {
			maxChildren = len(ch)
		}
	}
	t := &Table{
		ID:     "X5 / §VII memory",
		Title:  fmt.Sprintf("per-node memory high-water marks (%s, f=%.1f%%, %d nodes)", preset.Name, 100*actual, cfg.Nodes),
		Header: []string{"store", "max observed", "bound"},
	}
	rep := m.Memory
	t.AddRow("Treecut proxy (complete tuples)", fmt.Sprintf("%d B", rep.MaxProxyBytes),
		fmt.Sprintf("Dmax x children = %d B", 30*maxChildren))
	t.AddRow("subtree join-attr structure", fmt.Sprintf("%d B", rep.MaxSubtreeBytes), "500 B limit")
	t.AddRow("received filter (transient)", fmt.Sprintf("%d B", rep.MaxFilterBytes), "-")
	t.AddRow("nodes over the structure limit", fmtInt(int64(rep.OverflowNodes)), "-")
	t.Note("both stores stay within the paper's bounds; a SunSPOT-class node (512 KB RAM) uses a tiny fraction")
	t.AddTx(r.Stats.TotalTx(core.SENSPhases...))
	return t, nil
}

// Experiment is one entry of Suite.
type Experiment struct {
	// ID is the short id `experiments -only` selects.
	ID string
	// Run executes the experiment and returns its table and, when
	// Artefact is set, the value whose JSON `experiments -out` writes.
	Run func(Config, Params) (*Table, any, error)
	// OnDemand marks an experiment All leaves out: it needs a parameter
	// (L1), or its table is wall-clock and machine-dependent (X7, X9), or
	// it takes the suite's own time again (X8, X10).
	OnDemand bool
	// Artefact names the checked-in record of the experiment's JSON
	// result; empty when the table is all there is.
	Artefact string
}

// Params carries what the on-demand experiments need beyond Config; the
// experiments of All ignore it.
type Params struct {
	// Loss lists L1's packet loss rates.
	Loss []float64
	// Scale and Shards list X7's node counts and the simulator shard
	// counts measured at each.
	Scale, Shards []int
	// MQONs lists X8's concurrent query counts.
	MQONs []int
	// ChurnRates and ChurnRounds are X10's per-epoch churn rates and the
	// query rounds per cell.
	ChurnRates  []float64
	ChurnRounds int
	// ServeWindow is X9's measured load window.
	ServeWindow time.Duration
}

// tableOnly adapts an experiment that reads Config alone.
func tableOnly(run func(Config) (*Table, error)) func(Config, Params) (*Table, any, error) {
	return func(c Config, _ Params) (*Table, any, error) {
		t, err := run(c)
		return t, nil, err
	}
}

// withResult returns a machine-readable result with the table it renders.
func withResult[R interface{ Table() *Table }](res R, err error) (*Table, any, error) {
	if err != nil {
		return nil, nil, err
	}
	return res.Table(), res, nil
}

// Suite lists every experiment by the short id `experiments -only`
// selects: the paper's evaluation and the ablations in paper order, which
// All runs, then the on-demand ones. All and cmd/experiments both range
// over it. A zero Nodes, Seed or MaxPacket in Config selects each
// experiment's own default (1500 nodes; 150 for X9 and X10).
var Suite = []Experiment{
	{ID: "E1a", Run: tableOnly(func(c Config) (*Table, error) { return RunOverallSavings(c, workload.Ratio33()) })},
	{ID: "E1b", Run: tableOnly(func(c Config) (*Table, error) { return RunOverallSavings(c, workload.Ratio60()) })},
	{ID: "E2a", Run: tableOnly(func(c Config) (*Table, error) { return RunPerNodeSavings(c, workload.Ratio33()) })},
	{ID: "E2b", Run: tableOnly(func(c Config) (*Table, error) { return RunPerNodeSavings(c, workload.Ratio60()) })},
	{ID: "E3", Run: tableOnly(func(c Config) (*Table, error) { return RunRatioSweep(c, workload.RatioSweep3JA(), "E3 / Fig. 12") })},
	{ID: "E4", Run: tableOnly(func(c Config) (*Table, error) { return RunRatioSweep(c, workload.RatioSweep1JA(), "E4 / Fig. 13") })},
	{ID: "E5", Run: tableOnly(func(c Config) (*Table, error) { return RunNetworkSize(c, nil, workload.Ratio33()) })},
	{ID: "E6", Run: tableOnly(func(c Config) (*Table, error) { return RunPacketSize(c, workload.Ratio33()) })},
	{ID: "E7", Run: tableOnly(func(c Config) (*Table, error) { return RunStepBreakdown(c, nil, workload.Ratio60()) })},
	{ID: "E8", Run: tableOnly(RunCompressionComparison)},
	{ID: "E9", Run: tableOnly(RunQuadInfluence)},
	{ID: "A1", Run: tableOnly(func(c Config) (*Table, error) { return RunTreecutAblation(c, workload.Ratio33()) })},
	{ID: "A2", Run: tableOnly(func(c Config) (*Table, error) { return RunFilterLimitAblation(c, workload.Ratio33()) })},
	{ID: "X1", Run: tableOnly(func(c Config) (*Table, error) { return RunIncrementalFilter(c, 0, 0) })},
	{ID: "X2", Run: tableOnly(RunRelatedWork)},
	{ID: "X3", Run: tableOnly(RunLifetime)},
	{ID: "X4", Run: tableOnly(RunResponseTime)},
	{ID: "X5", Run: tableOnly(RunMemory)},
	{ID: "X6", Run: tableOnly(RunEnergyLifetime)},
	{ID: "L1", OnDemand: true, Run: func(c Config, p Params) (*Table, any, error) {
		if len(p.Loss) == 0 {
			return nil, nil, errors.New("needs the packet loss rates to sweep (-loss 0.05,0.10)")
		}
		t, err := RunLossResilience(c, p.Loss)
		return t, nil, err
	}},
	{ID: "X7", OnDemand: true, Artefact: "BENCH_scale.json", Run: func(c Config, p Params) (*Table, any, error) {
		if len(p.Scale) == 0 {
			return nil, nil, errors.New("needs the node counts to measure (-scale 10000,100000)")
		}
		return withResult(RunScale(ScaleConfig{Sizes: p.Scale, Shards: p.Shards, Seed: c.Seed}))
	}},
	{ID: "X8", OnDemand: true, Artefact: "BENCH_mqo.json", Run: func(c Config, p Params) (*Table, any, error) {
		return withResult(RunMQO(MQOConfig{Nodes: c.Nodes, Seed: c.Seed, MaxPacket: c.MaxPacket, Ns: p.MQONs}))
	}},
	{ID: "X9", OnDemand: true, Artefact: "BENCH_serve.json", Run: func(c Config, p Params) (*Table, any, error) {
		return withResult(RunServeLoad(ServeConfig{Nodes: c.Nodes, Seed: c.Seed, Duration: p.ServeWindow}))
	}},
	{ID: "X10", OnDemand: true, Artefact: "BENCH_churn.json", Run: func(c Config, p Params) (*Table, any, error) {
		return withResult(RunChurnResilience(ChurnBenchConfig{
			Nodes: c.Nodes, Seed: c.Seed, MaxPacket: c.MaxPacket, Parallel: c.Parallel,
			Rates: p.ChurnRates, Rounds: p.ChurnRounds,
		}))
	}},
}

// All runs the experiments of Suite that are not on demand at the given
// configuration. Whole experiments fan out over cfg.Parallel workers (on
// top of the per-experiment sweep-cell fan-out); the returned tables are
// in declaration order and byte-identical for every worker count.
func All(cfg Config) ([]*Table, error) {
	cfg = cfg.withDefaults()
	var jobs []func() (*Table, error)
	for _, exp := range Suite {
		if exp.OnDemand {
			continue
		}
		jobs = append(jobs, func() (*Table, error) {
			cfg.hm.expInflight.Inc()
			t, _, err := exp.Run(cfg, Params{})
			cfg.hm.expInflight.Dec()
			cfg.Progress.CellDone("experiments", err == nil)
			return t, err
		})
	}
	// Whole-experiment completion reports under the pseudo-id
	// "experiments"; the fanned-out sweeps inside report their own cells.
	cfg.Progress.Begin("experiments", len(jobs))
	return Fanout(cfg.Parallel, jobs)
}

// RunLossResilience measures the robustness extension experiment L1:
// SENS-Join and the external join under packet loss with hop-by-hop
// reliable transport (ACKs, bounded retransmissions, duplicate
// suppression) and scoped recovery. For each loss rate it reports the
// total packets over the method's phases plus recovery, how many of
// them were retransmissions and ACKs, the recovery rounds, the
// completeness verdict and the result size against the oracle. Loss
// draws are seeded per rate, so the table is byte-identical for every
// -parallel value.
func RunLossResilience(cfg Config, rates []float64) (*Table, error) {
	cfg = cfg.withDefaults()
	if len(rates) == 0 {
		rates = []float64{0.01, 0.05, 0.10, 0.20}
	}
	preset := workload.Ratio33()
	t := &Table{
		ID: "L1 / loss resilience",
		Title: fmt.Sprintf("reliable transport under packet loss (%s, f=%.0f%%, %d nodes)",
			preset.Name, 100*cfg.DefaultFraction, cfg.Nodes),
		Header: []string{"loss", "method", "packets", "retx", "acks", "overhead", "recovery", "complete", "rows"},
	}
	type mrow struct {
		pk, retx, ack int64
		rounds        int
		complete      bool
		rows, truth   int
	}
	type cell struct{ ext, sens mrow }
	run := func(rate float64, m core.Method) (mrow, error) {
		r, done, err := cfg.lease()
		if err != nil {
			return mrow{}, err
		}
		defer done()
		// One loss stream per (rate, method): draws never depend on what
		// ran before, which keeps cells order- and worker-independent.
		seed := cfg.Seed + int64(rate*100000)
		if m.Name() != "external-join" {
			seed += 7
		}
		delta, _ := workload.Calibrate(r, preset, cfg.DefaultFraction)
		src := preset.Build(delta)
		prep, err := r.Prepare(src)
		if err != nil {
			return mrow{}, err
		}
		truth, err := core.GroundTruth(r.Exec(prep, 0))
		if err != nil {
			return mrow{}, err
		}
		res, err := cfg.run(r, src, m, 0, core.WithReliable(netsim.ReliableConfig{}), core.WithLoss(rate, seed))
		if err != nil {
			return mrow{}, err
		}
		phases := append(append([]string(nil), m.Phases()...), core.PhaseRecovery)
		return mrow{
			pk:       r.Stats.TotalTx(phases...),
			retx:     r.Stats.TotalRetx(phases...),
			ack:      r.Stats.TotalAck(phases...),
			rounds:   res.RecoveryRounds,
			complete: res.Complete,
			rows:     len(res.Rows),
			truth:    len(truth.Rows),
		}, nil
	}
	cells, err := Fanout(cfg.Parallel, cellJobs(cfg, "L1", rates, func(rate float64) (cell, error) {
		ext, err := run(rate, core.External{})
		if err != nil {
			return cell{}, err
		}
		sens, err := run(rate, core.NewSENSJoin())
		if err != nil {
			return cell{}, err
		}
		return cell{ext: ext, sens: sens}, nil
	}))
	if err != nil {
		return nil, err
	}
	allComplete, allExact := true, true
	for i, rate := range rates {
		c := cells[i]
		for _, mc := range []struct {
			name string
			r    mrow
		}{{"external-join", c.ext}, {"sens-join", c.sens}} {
			payload := mc.r.pk - mc.r.retx - mc.r.ack
			overhead := "-"
			if payload > 0 {
				overhead = fmt.Sprintf("%.1f%%", 100*float64(mc.r.retx+mc.r.ack)/float64(payload))
			}
			complete := "yes"
			if !mc.r.complete {
				complete = "NO"
				allComplete = false
			}
			if mc.r.complete && mc.r.rows != mc.r.truth {
				allExact = false
			}
			t.AddRow(fmtFrac(rate), mc.name, fmtInt(mc.r.pk), fmtInt(mc.r.retx), fmtInt(mc.r.ack),
				overhead, fmtInt(int64(mc.r.rounds)), complete, fmtInt(int64(mc.r.rows)))
			t.AddTx(mc.r.pk)
		}
	}
	if allComplete && allExact {
		t.Note("every run complete and oracle-exact: reliable transport plus scoped recovery rides out the loss")
	} else if allExact {
		t.Note("some runs stayed incomplete after recovery; every complete run was oracle-exact")
	} else {
		t.Note("a complete run deviated from the oracle — investigate")
	}
	return t, nil
}
