package bench

import (
	"fmt"

	"sensjoin/internal/core"
	"sensjoin/internal/netsim"
	"sensjoin/internal/tabledigest"
	"sensjoin/internal/workload"
)

// X10: churn resilience. Each cell runs many rounds of one calibrated
// join under a seeded churn & mobility injector — per-epoch node
// deaths, rejoins and waypoint mobility — at a given rate, crossed with
// the method and the transport: reliable transport with mid-round tree
// repair versus plain best-effort delivery. Every round is audited
// (including the churn-safety pass: a round is either oracle-exact or
// explicitly flagged incomplete with provenance), so the experiment
// measures graceful degradation, not silent wrongness: completeness %,
// mid-round repairs and their latency, and the transmission overhead
// churn induces over the churn-free baseline.
//
// Rate-0 cells attach no injector at all, so their tables are
// byte-identical to the seed experiments by construction; per-cell
// churn seeds make every cell independent of execution order and the
// -parallel worker count.

// ChurnBenchConfig parameterizes the X10 experiment.
type ChurnBenchConfig struct {
	// Nodes is the deployment size (default 150 — churn rounds re-plan
	// and audit every round, so X10 runs smaller than the suite).
	Nodes int
	// Seed drives placement, fields and the per-cell churn streams.
	Seed int64
	// MaxPacket is the radio packet size in bytes.
	MaxPacket int
	// Rates are the per-node churn-event probabilities per epoch
	// (default 0, 0.01, 0.05).
	Rates []float64
	// Rounds is the number of query rounds per cell (default 20).
	Rounds int
	// Epoch is the churn epoch in simulated seconds; each round covers
	// one epoch of churn (default 30).
	Epoch float64
	// Fraction is the calibrated result-fraction target (default 5%).
	Fraction float64
	// Parallel is the cell fan-out worker count.
	Parallel int
}

func (c ChurnBenchConfig) withDefaults() ChurnBenchConfig {
	if c.Nodes == 0 {
		c.Nodes = 150
	}
	if c.Seed == 0 {
		c.Seed = 42
	}
	if c.MaxPacket == 0 {
		c.MaxPacket = 48
	}
	if len(c.Rates) == 0 {
		c.Rates = []float64{0, 0.01, 0.05}
	}
	if c.Rounds == 0 {
		c.Rounds = 20
	}
	if c.Epoch == 0 {
		c.Epoch = 30
	}
	if c.Fraction == 0 {
		c.Fraction = 0.05
	}
	return c
}

// ChurnPoint is one measured (rate, method, transport) cell.
type ChurnPoint struct {
	Rate              float64        `json:"rate"`
	Method            string         `json:"method"`
	Transport         string         `json:"transport"`
	Rounds            int            `json:"rounds"`
	CompleteExact     int            `json:"complete_exact_rounds"`
	CompletenessPct   float64        `json:"completeness_pct"`
	Repairs           int            `json:"repairs"`
	RepairFailures    int            `json:"repair_failures"`
	MeanRepairLatency float64        `json:"mean_repair_latency_s"`
	TxPackets         int64          `json:"tx_packets"`
	ExtraTxPct        float64        `json:"extra_tx_pct"`
	Deaths            int            `json:"churn_deaths"`
	Rejoins           int            `json:"churn_rejoins"`
	Moves             int            `json:"churn_moves"`
	IncompleteReasons map[string]int `json:"incomplete_reasons,omitempty"`
	Violations        int            `json:"violations"`
}

// ChurnResult is the machine-readable X10 artifact (BENCH_churn.json).
// ViolationsTotal and RepairsTotal are the summary fields CI greps.
type ChurnResult struct {
	Nodes           int          `json:"nodes"`
	Seed            int64        `json:"seed"`
	Rounds          int          `json:"rounds"`
	Epoch           float64      `json:"epoch_s"`
	Points          []ChurnPoint `json:"points"`
	ViolationsTotal int          `json:"violations_total"`
	RepairsTotal    int          `json:"repairs_total"`
}

// churnTransports are the two transport legs of every cell.
const (
	churnReliable   = "reliable+repair"
	churnBestEffort = "best-effort"
)

// RunChurnResilience executes the X10 churn-resilience ladder.
func RunChurnResilience(cfg ChurnBenchConfig) (*ChurnResult, error) {
	cfg = cfg.withDefaults()
	preset := workload.Ratio33()

	type spec struct {
		rate     float64
		method   core.Method
		reliable bool
	}
	var specs []spec
	for _, rate := range cfg.Rates {
		for _, reliable := range []bool{true, false} {
			for _, m := range []core.Method{core.NewSENSJoin(), core.External{}} {
				specs = append(specs, spec{rate: rate, method: m, reliable: reliable})
			}
		}
	}

	run := func(s spec) (ChurnPoint, error) {
		r, err := privateRunner(cfg.Nodes, cfg.Seed, cfg.MaxPacket)
		if err != nil {
			return ChurnPoint{}, err
		}
		opts := []core.RunOption{core.Audited()} // violations are counted, not fatal
		transport := churnBestEffort
		if s.reliable {
			opts = append(opts, core.WithReliable(netsim.ReliableConfig{}))
			transport = churnReliable
		}
		var ch *netsim.Churn
		if s.rate > 0 {
			// One churn stream per cell: independent of execution order
			// and worker count.
			seed := cfg.Seed + int64(s.rate*100000)
			if s.method.Name() != "external-join" {
				seed += 7
			}
			if s.reliable {
				seed += 13
			}
			ch = r.AttachChurn(netsim.ChurnConfig{Seed: seed, Rate: s.rate, Epoch: cfg.Epoch})
		}
		delta, _ := workload.Calibrate(r, preset, cfg.Fraction)
		prep, err := r.Prepare(preset.Build(delta))
		if err != nil {
			return ChurnPoint{}, err
		}

		p := ChurnPoint{
			Rate: s.rate, Method: s.method.Name(), Transport: transport,
			Rounds: cfg.Rounds, IncompleteReasons: map[string]int{},
		}
		repairLatSum, repairLatN := 0.0, 0
		for round := 0; round < cfg.Rounds; round++ {
			horizon := r.Sim.Now() + cfg.Epoch
			if ch != nil {
				// One epoch of churn per round period. Ticks the round's own
				// event windows reach fire mid-round (between phases or
				// inside the reliable drain); the rest fire in the idle tail
				// below, so every leg sees the same churn process whether
				// its rounds drain the heap or run bounded windows.
				ch.Cover(horizon)
			}
			// Pre-round oracle: GroundTruth reflects aliveness at call
			// time, and churn only acts once the round's clock advances.
			truth, err := core.GroundTruth(r.Exec(prep, 0))
			if err != nil {
				return ChurnPoint{}, err
			}
			res, err := r.RunPrepared(prep, s.method, 0, opts...)
			if err != nil {
				return ChurnPoint{}, fmt.Errorf("bench: churn %s/%s rate %g round %d: %w",
					s.method.Name(), transport, s.rate, round, err)
			}
			p.Violations += len(res.Violations)
			if res.Complete && tabledigest.Diff(res.Table(), truth.Table()) == "" {
				p.CompleteExact++
			}
			if !res.Complete {
				reason := res.IncompleteReason
				if reason == "" {
					reason = "unexplained" // the churn audit flags this too
				}
				p.IncompleteReasons[reason]++
			}
			p.Repairs += res.Repairs
			if res.Repairs > 0 {
				repairLatSum += res.RepairLatency
				repairLatN++
				if !res.Complete {
					p.RepairFailures++
				}
			}
			if ch != nil {
				// Idle tail: advance to the period boundary so churn ticks
				// beyond the round's last event window still happen.
				r.Sim.RunUntil(horizon)
			}
		}
		phases := append(append([]string(nil), s.method.Phases()...), core.PhaseRecovery)
		p.TxPackets = r.Stats.TotalTx(phases...)
		p.CompletenessPct = 100 * float64(p.CompleteExact) / float64(cfg.Rounds)
		if repairLatN > 0 {
			p.MeanRepairLatency = repairLatSum / float64(repairLatN)
		}
		if ch != nil {
			p.Deaths, p.Rejoins, p.Moves = ch.Deaths, ch.Rejoins, ch.Moves
		}
		if len(p.IncompleteReasons) == 0 {
			p.IncompleteReasons = nil
		}
		return p, nil
	}

	jobs := make([]func() (ChurnPoint, error), len(specs))
	for i, s := range specs {
		jobs[i] = func() (ChurnPoint, error) { return run(s) }
	}
	points, err := Fanout(cfg.Parallel, jobs)
	if err != nil {
		return nil, err
	}

	// Transmission overhead relative to the churn-free cell of the same
	// (method, transport) leg.
	base := map[[2]string]int64{}
	for _, p := range points {
		if p.Rate == 0 {
			base[[2]string{p.Method, p.Transport}] = p.TxPackets
		}
	}
	res := &ChurnResult{Nodes: cfg.Nodes, Seed: cfg.Seed, Rounds: cfg.Rounds, Epoch: cfg.Epoch}
	for _, p := range points {
		if b := base[[2]string{p.Method, p.Transport}]; b > 0 && p.Rate > 0 {
			p.ExtraTxPct = 100 * (float64(p.TxPackets)/float64(b) - 1)
		}
		res.Points = append(res.Points, p)
		res.ViolationsTotal += p.Violations
		res.RepairsTotal += p.Repairs
	}
	return res, nil
}

// Table renders the X10 result in the suite's table format.
func (r *ChurnResult) Table() *Table {
	t := &Table{
		ID:     "X10",
		Title:  "churn resilience: completeness and repair under node churn & mobility",
		Header: []string{"rate", "method", "transport", "complete", "repairs", "repairLat", "tx", "extraTx", "deaths", "moves", "incomplete", "viol"},
	}
	for _, p := range r.Points {
		reasons := "-"
		if len(p.IncompleteReasons) > 0 {
			reasons = ""
			for _, k := range []string{core.ReasonLoss, core.ReasonDeadSubtree, core.ReasonPartition, "unexplained"} {
				if n := p.IncompleteReasons[k]; n > 0 {
					if reasons != "" {
						reasons += " "
					}
					reasons += fmt.Sprintf("%s:%d", k, n)
				}
			}
		}
		repairLat := "-"
		if p.Repairs > 0 {
			repairLat = fmt.Sprintf("%.1fs", p.MeanRepairLatency)
		}
		t.AddRow(
			fmt.Sprintf("%g%%", 100*p.Rate), p.Method, p.Transport,
			fmt.Sprintf("%d/%d (%.0f%%)", p.CompleteExact, p.Rounds, p.CompletenessPct),
			fmtInt(int64(p.Repairs)), repairLat,
			fmtInt(p.TxPackets), fmt.Sprintf("%+.0f%%", p.ExtraTxPct),
			fmtInt(int64(p.Deaths)), fmtInt(int64(p.Moves)),
			reasons, fmtInt(int64(p.Violations)),
		)
		t.AddTx(p.TxPackets)
	}
	t.Note("n=%d nodes, %d rounds per cell, one %gs churn epoch per round; every round audited (churn-safety pass included)", r.Nodes, r.Rounds, r.Epoch)
	t.Note("complete counts rounds that were both complete and oracle-exact against the pre-round ground truth")
	t.Note("total audit violations: %d; total mid-round repairs: %d", r.ViolationsTotal, r.RepairsTotal)
	return t
}
