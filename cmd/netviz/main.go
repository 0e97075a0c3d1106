// Command netviz dumps a simulated deployment: node positions, the
// routing tree, depth and degree distributions. The output is plain text
// (or DOT with -dot for rendering with graphviz).
//
// Usage:
//
//	netviz [-nodes 300] [-seed 1] [-dot] [-loads] [-timeline] [-heatmap]
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"sensjoin/internal/core"
	"sensjoin/internal/routing"
	"sensjoin/internal/stats"
	"sensjoin/internal/topology"
	"sensjoin/internal/trace"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the command: it parses args, prints the selected view and
// returns the exit status (2 for a usage error, 1 for a failure).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("netviz", flag.ContinueOnError)
	fs.SetOutput(stderr)
	nodes := fs.Int("nodes", 300, "sensor node count")
	seed := fs.Int64("seed", 1, "placement seed")
	dot := fs.Bool("dot", false, "emit graphviz DOT of the routing tree")
	loads := fs.Bool("loads", false, "run a default join with both methods and show the per-node load distribution")
	timeline := fs.Bool("timeline", false, "run a default join and render its execution timeline from the journal")
	heatmap := fs.Bool("heatmap", false, "run a default join with both methods and render a spatial per-node radio-energy heatmap")
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}
	if fs.NArg() != 0 {
		fmt.Fprintln(stderr, "netviz takes no positional arguments")
		fs.Usage()
		return 2
	}

	r, err := core.NewRunner(core.SetupConfig{Nodes: *nodes, Seed: *seed})
	if err != nil {
		fmt.Fprintln(stderr, "netviz:", err)
		return 1
	}
	switch {
	case *dot:
		emitDot(stdout, r.Dep, r.Tree)
	case *loads:
		err = emitLoads(stdout, r)
	case *timeline:
		err = emitTimeline(stdout, r)
	case *heatmap:
		err = emitHeatmap(stdout, r)
	default:
		emitSummary(stdout, r.Dep, r.Tree)
	}
	if err != nil {
		fmt.Fprintln(stderr, "netviz:", err)
		return 1
	}
	return 0
}

// emitSummary prints the deployment, the tree's depth histogram and the
// first nodes' placement and tree links.
func emitSummary(w io.Writer, dep *topology.Deployment, tree *routing.Tree) {
	fmt.Fprintf(w, "deployment: %d nodes on %.0fx%.0f m, range %.0f m, avg degree %.1f\n",
		dep.N(), dep.Area.Width(), dep.Area.Height(), dep.Range, dep.AvgDegree())
	fmt.Fprintf(w, "routing tree: max depth %d, root descendants %d\n\n",
		tree.MaxDepth, tree.Descendants[topology.BaseStation])

	depthCount := make([]int, tree.MaxDepth+1)
	for i := 0; i < dep.N(); i++ {
		if tree.Depth[i] >= 0 {
			depthCount[tree.Depth[i]]++
		}
	}
	fmt.Fprintln(w, "depth  nodes  histogram")
	for d, c := range depthCount {
		bar := ""
		for i := 0; i < c*60/dep.N()+1 && i < 60; i++ {
			bar += "#"
		}
		fmt.Fprintf(w, "%5d  %5d  %s\n", d, c, bar)
	}

	fmt.Fprintln(w, "\nnode   pos(x,y)        depth  parent  children  descendants")
	limit := dep.N()
	if limit > 25 {
		limit = 25
	}
	for i := 0; i < limit; i++ {
		fmt.Fprintf(w, "%4d   (%6.1f,%6.1f)  %5d  %6d  %8d  %11d\n",
			i, dep.Pos[i].X, dep.Pos[i].Y, tree.Depth[i], tree.Parent[i],
			len(tree.Children[i]), tree.Descendants[i])
	}
	if dep.N() > limit {
		fmt.Fprintf(w, "... (%d more nodes)\n", dep.N()-limit)
	}
}

func emitDot(w io.Writer, dep *topology.Deployment, tree *routing.Tree) {
	fmt.Fprintln(w, "digraph routing {")
	fmt.Fprintln(w, "  node [shape=point];")
	for i := 0; i < dep.N(); i++ {
		fmt.Fprintf(w, "  n%d [pos=\"%.1f,%.1f!\"];\n", i, dep.Pos[i].X, dep.Pos[i].Y)
		if p := tree.Parent[i]; p != routing.NoParent {
			fmt.Fprintf(w, "  n%d -> n%d;\n", i, p)
		}
	}
	fmt.Fprintln(w, "}")
}

// emitTimeline journals a default SENS-Join execution and renders the
// phase timeline with transmission density.
func emitTimeline(w io.Writer, r *core.Runner) error {
	const src = `SELECT A.hum, B.hum FROM Sensors A, Sensors B
		WHERE A.temp - B.temp > 6 ONCE`
	rec := r.EnableTrace()
	if _, err := r.Run(src, core.NewSENSJoin(), 0, core.WithoutRows()); err != nil {
		return err
	}
	j := rec.Journal()
	fmt.Fprintln(w, trace.Timeline(j, 72))
	fmt.Fprintln(w, trace.PhaseBreakdown(j))
	return nil
}

// emitLoads races both methods on a default selective join and prints
// the per-node packet distribution by tree depth — the Fig. 11 view.
func emitLoads(w io.Writer, r *core.Runner) error {
	const src = `SELECT A.hum, B.hum FROM Sensors A, Sensors B
		WHERE A.temp - B.temp > 6 ONCE`
	show := func(name string, m core.Method) error {
		r.Stats.Reset()
		if _, err := r.Run(src, m, 0, core.WithoutRows()); err != nil {
			return err
		}
		per := r.Stats.PerNodeTx(m.Phases()...)
		byDepth := make(map[int][]int64)
		for i := 1; i < len(per); i++ {
			d := r.Tree.Depth[i]
			byDepth[d] = append(byDepth[d], per[i])
		}
		fmt.Fprintf(w, "\n%s — packets per node by depth (avg [max]):\n", name)
		for d := 1; d <= r.Tree.MaxDepth; d++ {
			nodes := byDepth[d]
			if len(nodes) == 0 {
				continue
			}
			var sum, max int64
			for _, p := range nodes {
				sum += p
				if p > max {
					max = p
				}
			}
			avg := float64(sum) / float64(len(nodes))
			bar := strings.Repeat("#", int(avg)+1)
			fmt.Fprintf(w, "depth %2d (%3d nodes): %6.1f [%4d] %s\n", d, len(nodes), avg, max, bar)
		}
		return nil
	}
	if err := show("external-join", core.External{}); err != nil {
		return err
	}
	return show("sens-join", core.NewSENSJoin())
}

// emitHeatmap races both methods on the default join and renders each
// per-node radio-energy distribution (CC2420-class model) as a spatial
// ASCII heatmap — the geographic view of the Fig. 11 hotspot story: the
// external join concentrates energy drain around the base station,
// SENS-Join flattens it.
func emitHeatmap(w io.Writer, r *core.Runner) error {
	const src = `SELECT A.hum, B.hum FROM Sensors A, Sensors B
		WHERE A.temp - B.temp > 6 ONCE`
	const gw, gh = 60, 20
	ramp := []byte(" .:-=+*#%@")
	model := stats.CC2420Model()
	area := r.Dep.Area
	show := func(name string, m core.Method) error {
		r.Stats.Reset()
		if _, err := r.Run(src, m, 0, core.WithoutRows()); err != nil {
			return err
		}
		energy := r.Stats.PerNodeEnergy(model, m.Phases()...)
		var sum [gh][gw]float64
		var cnt [gh][gw]int
		cell := func(i int) (int, int) {
			gx := int((r.Dep.Pos[i].X - area.MinX) / area.Width() * gw)
			gy := int((r.Dep.Pos[i].Y - area.MinY) / area.Height() * gh)
			if gx >= gw {
				gx = gw - 1
			}
			if gy >= gh {
				gy = gh - 1
			}
			return gx, gy
		}
		var max float64
		for i := 1; i < len(energy); i++ {
			gx, gy := cell(i)
			sum[gy][gx] += energy[i]
			cnt[gy][gx]++
		}
		for y := 0; y < gh; y++ {
			for x := 0; x < gw; x++ {
				if cnt[y][x] > 0 && sum[y][x]/float64(cnt[y][x]) > max {
					max = sum[y][x] / float64(cnt[y][x])
				}
			}
		}
		node, peak := stats.MaxLoadNode(energy)
		p := stats.Percentiles(energy, 0.5, 0.99)
		fmt.Fprintf(w, "\n%s — mean radio energy per grid cell (peak cell %.2f mJ; B = base station):\n",
			name, 1000*max)
		bx, by := cell(int(topology.BaseStation))
		for y := 0; y < gh; y++ {
			row := make([]byte, gw)
			for x := 0; x < gw; x++ {
				row[x] = ' '
				if cnt[y][x] > 0 {
					mean := sum[y][x] / float64(cnt[y][x])
					idx := int(mean / max * float64(len(ramp)-1))
					if idx >= len(ramp) {
						idx = len(ramp) - 1
					}
					row[x] = ramp[idx]
				}
				if x == bx && y == by {
					row[x] = 'B'
				}
			}
			fmt.Fprintln(w, string(row))
		}
		fmt.Fprintf(w, "hotspot node %d: %.2f mJ (%d descendants); p50 %.3f mJ, p99 %.3f mJ, gini %.2f\n",
			node, 1000*peak, r.Tree.Descendants[node], 1000*p[0], 1000*p[1], stats.Gini(energy))
		return nil
	}
	if err := show("external-join", core.External{}); err != nil {
		return err
	}
	return show("sens-join", core.NewSENSJoin())
}
