package bench

import (
	"bytes"
	"strings"
	"testing"

	"sensjoin/internal/metrics"
)

// renderAll runs every experiment at cfg and renders the tables to one
// string, the same representation cmd/experiments prints.
func renderAll(t *testing.T, cfg Config) string {
	t.Helper()
	tables, err := All(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, tbl := range tables {
		b.WriteString(tbl.String())
	}
	return b.String()
}

// TestAllDeterministicAcrossParallelism is the harness's core
// correctness claim: the rendered tables are byte-identical whether the
// experiments run sequentially or fanned out over many workers, and
// across repeated runs (the shared deployment cache and the memoized
// calibration must not leak state between runs). Cells lease their
// runners from the call's pools, so which cells share a runner, and in
// which order, changes with the worker count: a lease that remembered
// anything of the one before it would show here. Run under -race.
func TestAllDeterministicAcrossParallelism(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full experiment suite six times")
	}
	cfg := smallConfig()

	cfg.Parallel = 1
	seq := renderAll(t, cfg)
	for _, workers := range []int{2, 4, 8} {
		cfg.Parallel = workers
		if par := renderAll(t, cfg); seq != par {
			t.Fatalf("tables differ between Parallel=1 and Parallel=%d:\n--- sequential ---\n%s\n--- parallel ---\n%s", workers, seq, par)
		}
	}
	if again := renderAll(t, cfg); seq != again {
		t.Fatal("tables differ between repeated Parallel=8 runs")
	}
}

// One All call builds a runner per deployment and radio it touches (the
// configured one, E5's other sizes, E6's 124-byte radio) when it runs
// sequentially, not one per experiment and sweep cell: every runner
// construction asks the shared deployment cache, which counts.
func TestAllLeasesRunners(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full experiment suite")
	}
	cfg := smallConfig()
	cfg.Parallel = 1
	cfg.Metrics = metrics.New()
	if _, err := All(cfg); err != nil {
		t.Fatal(err)
	}
	built := cfg.Metrics.Counter("sensjoin_core_setup_cache_hits_total", "shared deployment cache hits").Value() +
		cfg.Metrics.Counter("sensjoin_core_setup_cache_misses_total", "shared deployment cache misses").Value()
	if built == 0 || built > 8 {
		t.Errorf("one sequential All built %d runners, want one per (deployment, radio): at most 8", built)
	}
}

// The loss-sweep table must be byte-identical across worker counts and
// repeated runs too: per-(rate, method) seeded loss streams make each
// cell independent of scheduling.
func TestLossResilienceDeterministicAcrossParallelism(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the loss sweep three times")
	}
	render := func(parallel int) string {
		cfg := smallConfig()
		cfg.Parallel = parallel
		tbl, err := RunLossResilience(cfg, []float64{0.05, 0.10})
		if err != nil {
			t.Fatal(err)
		}
		return tbl.String()
	}
	seq := render(1)
	par := render(8)
	if seq != par {
		t.Fatalf("loss table differs between Parallel=1 and Parallel=8:\n--- sequential ---\n%s\n--- parallel ---\n%s", seq, par)
	}
	if again := render(8); par != again {
		t.Fatal("loss table differs between repeated Parallel=8 runs")
	}
}

// TestObservabilityDoesNotChangeTables is the observability layer's core
// contract: attaching the live metrics registry and the progress tracker
// must leave every rendered table byte-identical — instruments observe
// the simulation, they never perturb it. It also checks that the
// registry actually saw the run (all layers reported) and that the
// progress tracker converged with nothing in flight.
func TestObservabilityDoesNotChangeTables(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full experiment suite twice")
	}
	cfg := smallConfig()
	cfg.Parallel = 4
	plain := renderAll(t, cfg)

	var stderr bytes.Buffer
	cfg.Metrics = metrics.New()
	cfg.Progress = NewProgress(&stderr)
	observed := renderAll(t, cfg)
	if plain != observed {
		t.Fatalf("tables differ with observability enabled:\n--- plain ---\n%s\n--- observed ---\n%s", plain, observed)
	}

	var prom bytes.Buffer
	if err := cfg.Metrics.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	text := prom.String()
	for _, family := range []string{
		"sensjoin_netsim_events_total",
		"sensjoin_netsim_tx_packets_total",
		"sensjoin_core_runs_total",
		"sensjoin_core_phase_transitions_total",
		"sensjoin_routing_tree_depth",
		"sensjoin_bench_cells_done_total",
		"sensjoin_bench_node_energy_joules",
	} {
		if !strings.Contains(text, family) {
			t.Errorf("family %s missing from exposition", family)
		}
	}
	if _, err := metrics.ValidateProm(strings.NewReader(text)); err != nil {
		t.Errorf("exposition invalid: %v", err)
	}
	for _, e := range cfg.Progress.Snapshot() {
		if e.Done != e.Total || e.Failed != 0 {
			t.Errorf("progress %s: done %d of %d, %d failed", e.ID, e.Done, e.Total, e.Failed)
		}
	}
	if stderr.Len() == 0 {
		t.Error("progress writer saw no output")
	}
}

// The X6 energy/lifetime table must be byte-identical across worker
// counts and repeated runs, like every other table.
func TestEnergyLifetimeDeterministicAcrossParallelism(t *testing.T) {
	render := func(parallel int) string {
		cfg := smallConfig()
		cfg.Parallel = parallel
		tbl, err := RunEnergyLifetime(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return tbl.String()
	}
	seq := render(1)
	par := render(8)
	if seq != par {
		t.Fatalf("energy table differs between Parallel=1 and Parallel=8:\n--- sequential ---\n%s\n--- parallel ---\n%s", seq, par)
	}
	if again := render(8); par != again {
		t.Fatal("energy table differs between repeated Parallel=8 runs")
	}
}
