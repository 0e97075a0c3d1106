package bench

import (
	"fmt"

	"sensjoin/internal/core"
	"sensjoin/internal/metrics"
	"sensjoin/internal/stats"
	"sensjoin/internal/workload"
)

// energyBounds are the histogram bucket edges (Joules) for the live
// per-node energy distribution exported under
// sensjoin_bench_node_energy_joules.
var energyBounds = []float64{1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 3e-2, 1e-1, 3e-1, 1}

// energyByDescendants bins per-node energy by the node's descendant
// count — the float-valued sibling of stats.LoadByDescendants, with the
// same trailing overflow bin.
func energyByDescendants(energy []float64, desc []int, boundaries []int) (mean []float64, count []int) {
	nbins := len(boundaries) + 1
	mean = make([]float64, nbins)
	count = make([]int, nbins)
	sums := make([]float64, nbins)
	for i := 1; i < len(energy); i++ { // skip the powered base station
		b := len(boundaries)
		for j, up := range boundaries {
			if desc[i] <= up {
				b = j
				break
			}
		}
		sums[b] += energy[i]
		count[b]++
	}
	for b := range sums {
		if count[b] > 0 {
			mean[b] = sums[b] / float64(count[b])
		}
	}
	return mean, count
}

// RunEnergyLifetime measures the extension experiment X6: the per-node
// energy distribution under a CC2420-class radio model, promoted from
// the raw stats.EnergyModel helpers to a reported artifact. It breaks
// mean per-node energy down by descendant count (the Fig. 11 hotspot
// axis, in Joules instead of packets), summarizes each method's
// distribution (percentiles, maximum, Gini coefficient, hotspot node)
// and estimates the network lifetime — rounds until the first node
// death under a fixed radio budget — for the external join and
// SENS-Join. With Config.Metrics set, every node's energy is also
// observed into a live histogram labeled by method.
func RunEnergyLifetime(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	const batteryJ = 50.0 // radio share of a small battery; scale only
	preset := workload.Ratio33()
	r, done, err := cfg.lease()
	if err != nil {
		return nil, err
	}
	defer done()
	delta, actual := workload.Calibrate(r, preset, cfg.DefaultFraction)
	src := preset.Build(delta)
	model := stats.CC2420Model()

	t := &Table{
		ID: "X6 / energy & lifetime",
		Title: fmt.Sprintf("per-node energy and network lifetime (%s, f=%.1f%%, %d nodes, %.0f J budget)",
			preset.Name, 100*actual, cfg.Nodes, batteryJ),
		Header: []string{"descendants <=", "nodes", "external mJ", "sens mJ", "reduction"},
	}

	type summary struct {
		name         string
		energy       []float64
		rounds, dead int
	}
	bounds := []int{0, 2, 5, 10, 20, 50, 100, 1 << 30}
	var sums []summary
	var perDesc [][]float64
	var counts []int
	for _, m := range []core.Method{core.External{}, core.NewSENSJoin()} {
		r.Stats.Reset()
		if _, err := r.Run(src, m, 0, core.WithoutRows()); err != nil {
			return nil, err
		}
		energy := r.Stats.PerNodeEnergy(model, m.Phases()...)
		if cfg.Metrics != nil {
			h := cfg.Metrics.Histogram("sensjoin_bench_node_energy_joules",
				"per-node radio energy for one query round", energyBounds,
				metrics.L{Key: "method", Value: m.Name()})
			for i := 1; i < len(energy); i++ {
				h.Observe(energy[i])
			}
		}
		rounds, dead := stats.LifetimeRounds(energy, batteryJ)
		mean, cnt := energyByDescendants(energy, r.Tree.Descendants, bounds)
		perDesc = append(perDesc, mean)
		if counts == nil {
			counts = cnt
		}
		sums = append(sums, summary{name: m.Name(), energy: energy, rounds: rounds, dead: dead})
		t.AddTx(r.Stats.TotalTx(m.Phases()...))
	}

	mJ := func(v float64) string { return fmt.Sprintf("%.2f", 1000*v) }
	for i, up := range bounds {
		if counts[i] == 0 {
			continue
		}
		label := fmtInt(int64(up))
		if up == 1<<30 {
			label = "max"
		}
		red := "-"
		if perDesc[1][i] > 0 {
			red = fmt.Sprintf("%.1fx", perDesc[0][i]/perDesc[1][i])
		}
		t.AddRow(label, fmtInt(int64(counts[i])), mJ(perDesc[0][i]), mJ(perDesc[1][i]), red)
	}

	for _, s := range sums {
		p := stats.Percentiles(s.energy, 0.5, 0.9, 0.99)
		node, max := stats.MaxLoadNode(s.energy)
		t.Note("%s: p50 %s / p90 %s / p99 %s / max %s mJ, gini %.2f, hotspot node %d (%d descendants)",
			s.name, mJ(p[0]), mJ(p[1]), mJ(p[2]), mJ(max),
			stats.Gini(s.energy), node, r.Tree.Descendants[node])
	}
	ext, sens := sums[0], sums[1]
	t.Note("lifetime at %.0f J: external %d rounds (node %d dies first) vs sens-join %d rounds (node %d) = %.1fx extension — the paper's conclusion quantified",
		batteryJ, ext.rounds, ext.dead, sens.rounds, sens.dead,
		float64(sens.rounds)/float64(ext.rounds))
	return t, nil
}
