package bench

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"sensjoin/internal/core"
	"sensjoin/internal/field"
	"sensjoin/internal/routing"
	"sensjoin/internal/topology"
	"sensjoin/internal/workload"
)

// ScaleConfig parameterizes the X7 scale experiment.
type ScaleConfig struct {
	// Sizes lists the node counts to measure (e.g. 10k..1M).
	Sizes []int
	// Shards lists the simulator shard counts per size (1 = one
	// region).
	Shards []int
	// Seed drives placement and field generation.
	Seed int64
	// SetupWorkers parallelizes deployment generation, tree
	// construction and plan building (0 = GOMAXPROCS).
	SetupWorkers int
	// Fraction is the calibrated result-fraction target (0 = 1%).
	Fraction float64
}

// ScalePoint is one measured (size, shards, method) cell.
type ScalePoint struct {
	Nodes        int     `json:"nodes"`
	Shards       int     `json:"shards"`
	Method       string  `json:"method"`
	WallSec      float64 `json:"wall_sec"`
	Events       int64   `json:"events"`
	EventsPerSec float64 `json:"events_per_sec"`
	BytesPerNode float64 `json:"bytes_per_node"`
	ResponseTime float64 `json:"response_time_sec"`
	Rows         int     `json:"rows"`
	Complete     bool    `json:"complete"`
	PeakRSSMB    float64 `json:"peak_rss_mb"`
	// LiveBytesPerNode is the live heap the run adds per node: the heap
	// after a forced collection once the run returned (its result still
	// held) minus the same before it. Unlike PeakRSSMB it belongs to this
	// cell alone.
	LiveBytesPerNode float64 `json:"live_bytes_per_node"`
	// PhaseBytesPerNode splits BytesPerNode by protocol phase for a
	// method of more than one (SENS-Join).
	PhaseBytesPerNode map[string]float64 `json:"phase_bytes_per_node,omitempty"`
}

// ScaleSetup records the per-size setup cost (placement + neighbor
// grid + routing tree), which the parallel setup path targets, and the
// cost of the δ calibration that follows it.
type ScaleSetup struct {
	Nodes    int     `json:"nodes"`
	WallSec  float64 `json:"wall_sec"`
	MaxDepth int     `json:"max_depth"`
	// CalibrateSec is the wall-clock of the size's one cold
	// workload.Calibrate: column fill, sort and search.
	CalibrateSec float64 `json:"calibrate_sec"`
}

// ScaleResult is the machine-readable X7 artifact (BENCH_scale.json).
type ScaleResult struct {
	GOMAXPROCS int          `json:"gomaxprocs"`
	Seed       int64        `json:"seed"`
	Setup      []ScaleSetup `json:"setup"`
	Points     []ScalePoint `json:"points"`
}

// RunScale measures X7: wall-clock, simulator event throughput, radio
// bytes per node (per phase for SENS-Join), live heap per node and peak
// RSS for both join methods as the deployment grows, at each configured
// shard count. Timings are wall-clock and machine-dependent, so X7 is
// deliberately not part of All(): its table is not byte-reproducible,
// only its protocol observables are (and TestShardCountDeterminism pins
// those).
func RunScale(cfg ScaleConfig) (*ScaleResult, error) {
	if len(cfg.Sizes) == 0 {
		return nil, fmt.Errorf("bench: scale run needs at least one size")
	}
	if len(cfg.Shards) == 0 {
		cfg.Shards = []int{1}
	}
	if cfg.Fraction == 0 {
		cfg.Fraction = 0.01
	}
	if cfg.SetupWorkers == 0 {
		cfg.SetupWorkers = runtime.GOMAXPROCS(0)
	}
	res := &ScaleResult{GOMAXPROCS: runtime.GOMAXPROCS(0), Seed: cfg.Seed}
	for _, n := range cfg.Sizes {
		t0 := time.Now()
		dep, env, tree, err := scaleSetup(n, cfg.Seed, cfg.SetupWorkers)
		if err != nil {
			return nil, err
		}
		res.Setup = append(res.Setup, ScaleSetup{
			Nodes: n, WallSec: time.Since(t0).Seconds(), MaxDepth: tree.MaxDepth,
		})

		// One calibration per size: the memo hangs off the environment,
		// shared by every shard count's runner.
		src := ""
		for _, shards := range cfg.Shards {
			r := core.NewRunnerFromSetup(dep, env, tree, core.SetupConfig{
				Shards: shards, ShardWorkers: 0, SetupWorkers: cfg.SetupWorkers,
			})
			if src == "" {
				t1 := time.Now()
				delta, _ := workload.Calibrate(r, workload.Ratio33(), cfg.Fraction)
				res.Setup[len(res.Setup)-1].CalibrateSec = time.Since(t1).Seconds()
				// An aggregate COUNT folds matches inline at the base
				// station: the result computation stays O(matches)
				// without materializing rows, which matters at 1M nodes.
				src = workload.CountQuery(delta)
			}
			for _, m := range []core.Method{core.External{}, core.NewSENSJoin()} {
				r.Stats.Reset()
				live0 := liveHeap()
				steps0 := r.Sim.Steps()
				t1 := time.Now()
				out, err := r.Run(src, m, 0)
				wall := time.Since(t1).Seconds()
				if err != nil {
					return nil, fmt.Errorf("bench: scale n=%d shards=%d %s: %w", n, shards, m.Name(), err)
				}
				events := r.Sim.Steps() - steps0
				p := ScalePoint{
					Nodes: n, Shards: shards, Method: m.Name(),
					WallSec: wall, Events: events,
					BytesPerNode: float64(r.Stats.TotalTxBytes(m.Phases()...)) / float64(n),
					ResponseTime: out.ResponseTime,
					Rows:         len(out.Rows),
					Complete:     out.Complete,
					PeakRSSMB:    peakRSSMB(),
				}
				if phases := m.Phases(); len(phases) > 1 {
					p.PhaseBytesPerNode = make(map[string]float64, len(phases))
					for _, ph := range phases {
						p.PhaseBytesPerNode[ph] = float64(r.Stats.TotalTxBytes(ph)) / float64(n)
					}
				}
				p.LiveBytesPerNode = float64(int64(liveHeap())-int64(live0)) / float64(n)
				runtime.KeepAlive(out)
				if wall > 0 {
					p.EventsPerSec = float64(events) / wall
				}
				res.Points = append(res.Points, p)
			}
		}
	}
	return res, nil
}

// scaleSetup builds X7's deployment, field and routing tree at n nodes.
// Repair instead of rejection sampling: at constant density the
// probability that every boundary node connects vanishes with n.
func scaleSetup(n int, seed int64, workers int) (*topology.Deployment, *field.Environment, *routing.Tree, error) {
	dep, err := topology.GenerateParallel(topology.Config{
		Nodes: n, Area: topology.ScaledArea(n), Range: 50, Seed: seed,
		Repair: true,
	}, workers)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("bench: scale setup at n=%d: %w", n, err)
	}
	env := field.StandardEnvironment(dep.Area, seed+1000)
	return dep, env, routing.BuildTreeParallel(dep.Neighbors, topology.BaseStation, workers), nil
}

// liveHeap is the heap still reachable after a forced collection.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// Table renders the scale result in the suite's table format.
func (r *ScaleResult) Table() *Table {
	t := &Table{
		ID:     "X7",
		Title:  "scale: wall-clock, event throughput and memory vs network size",
		Header: []string{"nodes", "shards", "method", "wall(s)", "events", "events/s", "B/node", "B/node by phase", "resp(s)", "live B/node", "peakRSS(MB)"},
	}
	for _, p := range r.Points {
		phases := "-"
		if p.PhaseBytesPerNode != nil {
			parts := make([]string, 0, len(core.SENSPhases))
			for _, ph := range core.SENSPhases {
				parts = append(parts, fmt.Sprintf("%.1f", p.PhaseBytesPerNode[ph]))
			}
			phases = strings.Join(parts, " / ")
		}
		t.AddRow(
			fmtInt(int64(p.Nodes)), fmtInt(int64(p.Shards)), p.Method,
			fmt.Sprintf("%.2f", p.WallSec), fmtInt(p.Events),
			fmt.Sprintf("%.0f", p.EventsPerSec),
			fmt.Sprintf("%.1f", p.BytesPerNode),
			phases,
			fmt.Sprintf("%.2f", p.ResponseTime),
			fmt.Sprintf("%.0f", p.LiveBytesPerNode),
			fmt.Sprintf("%.0f", p.PeakRSSMB),
		)
	}
	for _, s := range r.Setup {
		t.Note("setup n=%d: %.2fs (placement + neighbor grid + tree, depth %d), calibrate %.2fs", s.Nodes, s.WallSec, s.MaxDepth, s.CalibrateSec)
	}
	t.Note("GOMAXPROCS=%d; wall-clock cells are machine-dependent, protocol observables are not", r.GOMAXPROCS)
	t.Note("B/node by phase is %s; live B/node is the heap a run adds, after a forced GC", strings.Join(core.SENSPhases, " / "))
	t.Note("peak RSS is the process high-water mark (monotone across rows)")
	return t
}
