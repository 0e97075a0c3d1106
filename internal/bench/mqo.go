package bench

import (
	"fmt"

	"sensjoin/internal/core"
	"sensjoin/internal/stats"
	"sensjoin/internal/tabledigest"
	"sensjoin/internal/workload"
)

// X8: multi-query optimization. N concurrent continuous queries run
// once under a shared core.QueryGroup and once as N independent
// continuous executions; the experiment reports total transmissions,
// radio bytes and CC2420 energy for both, at two overlap levels:
//
//	high — all N queries are Q1-style band joins differing only in
//	       delta: one shared cluster serves all of them;
//	low  — the queries alternate between the 33% and 60% presets
//	       (different join attributes), so the group degrades to two
//	       clusters and the sharing win shrinks accordingly.
//
// Every per-query result table of the shared run is compared against
// its independent counterpart (rows order-normalized — best-effort
// delivery reorders arrivals; the byte-identical guarantee under
// reliable transport is enforced by the differential test in
// internal/core).

// MQOConfig parameterizes the X8 experiment.
type MQOConfig struct {
	// Nodes is the deployment size (default 1500).
	Nodes int
	// Seed drives placement and fields.
	Seed int64
	// MaxPacket is the radio packet size in bytes.
	MaxPacket int
	// Ns lists the concurrent query counts (default 1,2,4,8,16).
	Ns []int
	// Epochs is the number of continuous rounds per cell (default 3).
	Epochs int
	// Period is the epoch period in seconds (default 30).
	Period float64
	// Fraction is the calibrated result-fraction target (default 5%).
	Fraction float64
}

func (c MQOConfig) withDefaults() MQOConfig {
	if c.Nodes == 0 {
		c.Nodes = 1500
	}
	if c.Seed == 0 {
		c.Seed = 42
	}
	if c.MaxPacket == 0 {
		c.MaxPacket = 48
	}
	if len(c.Ns) == 0 {
		c.Ns = []int{1, 2, 4, 8, 16}
	}
	if c.Epochs == 0 {
		c.Epochs = 3
	}
	if c.Period == 0 {
		c.Period = 30
	}
	if c.Fraction == 0 {
		c.Fraction = 0.05
	}
	return c
}

// MQOPoint is one measured (N, overlap) cell.
type MQOPoint struct {
	N               int     `json:"n"`
	Overlap         string  `json:"overlap"`
	Clusters        int     `json:"clusters"`
	SharedTx        int64   `json:"shared_tx"`
	IndepTx         int64   `json:"indep_tx"`
	TxRatio         float64 `json:"tx_ratio"`
	SharedBytes     int64   `json:"shared_bytes"`
	IndepBytes      int64   `json:"indep_bytes"`
	SharedEnergyJ   float64 `json:"shared_energy_j"`
	IndepEnergyJ    float64 `json:"indep_energy_j"`
	TablesIdentical bool    `json:"tables_identical"`
	diff            string  // the first table that differs, and how; "" when none does
}

// MQOResult is the machine-readable X8 artifact (BENCH_mqo.json).
type MQOResult struct {
	Nodes  int        `json:"nodes"`
	Seed   int64      `json:"seed"`
	Epochs int        `json:"epochs"`
	Points []MQOPoint `json:"points"`
}

// mqoQueries builds the N query texts of one overlap level.
func mqoQueries(r *core.Runner, cfg MQOConfig, n int, overlap string) []string {
	d33, _ := workload.Calibrate(r, workload.Ratio33(), cfg.Fraction)
	d60, _ := workload.Calibrate(r, workload.Ratio60(), cfg.Fraction)
	out := make([]string, n)
	for j := 0; j < n; j++ {
		spread := 1 + 0.02*float64(j)
		if overlap == "low" && j%2 == 1 {
			out[j] = workload.Ratio60().Build(d60 * spread)
		} else {
			out[j] = workload.Ratio33().Build(d33 * spread)
		}
	}
	return out
}

// mqoRunner builds one measurement runner with the low-noise drifting
// environment (temporal correlation at cell granularity is what the
// incremental filter machinery exploits).
func mqoRunner(cfg MQOConfig) (*core.Runner, error) {
	r, err := privateRunner(cfg.Nodes, cfg.Seed, cfg.MaxPacket)
	if err != nil {
		return nil, err
	}
	r.Env = quietEnv(r, cfg.Seed)
	return r, nil
}

// RunMQO measures X8.
func RunMQO(cfg MQOConfig) (*MQOResult, error) {
	cfg = cfg.withDefaults()
	model := stats.CC2420Model()
	res := &MQOResult{Nodes: cfg.Nodes, Seed: cfg.Seed, Epochs: cfg.Epochs}

	energyOf := func(r *core.Runner) float64 {
		total := 0.0
		for _, e := range r.Stats.PerNodeEnergy(model, core.SENSPhases...) {
			total += e
		}
		return total
	}

	for _, overlap := range []string{"high", "low"} {
		for _, n := range cfg.Ns {
			// Shared leg: one runner, one QueryGroup, Epochs rounds.
			rs, err := mqoRunner(cfg)
			if err != nil {
				return nil, err
			}
			srcs := mqoQueries(rs, cfg, n, overlap)
			g := core.NewQueryGroup(core.Options{})
			for _, s := range srcs {
				p, err := rs.Prepare(s)
				if err == nil {
					_, err = g.Add(p)
				}
				if err != nil {
					return nil, fmt.Errorf("bench: mqo n=%d %s: %w", n, overlap, err)
				}
			}
			shared := make(map[[2]int]*core.Result)
			for e := 0; e < cfg.Epochs; e++ {
				out, err := g.RunRound(rs, float64(e)*cfg.Period)
				if err != nil {
					return nil, fmt.Errorf("bench: mqo shared n=%d %s epoch %d: %w", n, overlap, e, err)
				}
				for q, rr := range out {
					shared[[2]int{e, q}] = rr
				}
			}
			p := MQOPoint{
				N: n, Overlap: overlap, Clusters: g.Clusters(),
				SharedTx:      rs.Stats.TotalTx(core.SENSPhases...),
				SharedBytes:   rs.Stats.TotalTxBytes(core.SENSPhases...),
				SharedEnergyJ: energyOf(rs),
			}

			// Independent leg: one fresh runner + continuous SENS-Join per
			// query, same deployment/environment/epochs.
			for q, s := range srcs {
				ri, err := mqoRunner(cfg)
				if err != nil {
					return nil, err
				}
				m := core.NewContinuousSENSJoin()
				for e := 0; e < cfg.Epochs; e++ {
					out, err := ri.Run(s, m, float64(e)*cfg.Period)
					if err != nil {
						return nil, fmt.Errorf("bench: mqo independent n=%d %s q=%d epoch %d: %w", n, overlap, q, e, err)
					}
					if d := tabledigest.Diff(shared[[2]int{e, q}].Table(), out.Table()); d != "" && p.diff == "" {
						p.diff = fmt.Sprintf("query %d epoch %d, shared vs independent: %s", q, e, d)
					}
				}
				p.IndepTx += ri.Stats.TotalTx(core.SENSPhases...)
				p.IndepBytes += ri.Stats.TotalTxBytes(core.SENSPhases...)
				p.IndepEnergyJ += energyOf(ri)
			}
			p.TablesIdentical = p.diff == ""
			if p.IndepTx > 0 {
				p.TxRatio = float64(p.SharedTx) / float64(p.IndepTx)
			}
			res.Points = append(res.Points, p)
		}
	}
	return res, nil
}

// Table renders the X8 result in the suite's table format.
func (r *MQOResult) Table() *Table {
	t := &Table{
		ID:     "X8",
		Title:  "multi-query optimization: shared vs independent execution of N continuous joins",
		Header: []string{"n", "overlap", "clusters", "sharedTx", "indepTx", "tx%", "sharedKB", "indepKB", "sharedJ", "indepJ", "tables"},
	}
	for _, p := range r.Points {
		tables := "identical"
		if !p.TablesIdentical {
			tables = "DIFFER (" + p.diff + ")"
		}
		t.AddRow(
			fmtInt(int64(p.N)), p.Overlap, fmtInt(int64(p.Clusters)),
			fmtInt(p.SharedTx), fmtInt(p.IndepTx),
			fmt.Sprintf("%.0f%%", 100*p.TxRatio),
			fmt.Sprintf("%.1f", float64(p.SharedBytes)/1024),
			fmt.Sprintf("%.1f", float64(p.IndepBytes)/1024),
			fmt.Sprintf("%.3f", p.SharedEnergyJ),
			fmt.Sprintf("%.3f", p.IndepEnergyJ),
			tables,
		)
	}
	t.Note("n=%d nodes, %d epochs per cell; stats cover the SENS-Join phases of all queries and epochs", r.Nodes, r.Epochs)
	t.Note("tables compare order-normalized per-query results; byte-identity under reliable transport is test-enforced")
	return t
}
