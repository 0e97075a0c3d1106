// Package workload builds the experiment queries of the paper's §VI and
// calibrates their selectivity.
//
// The evaluation queries are range self-joins in the style of Q1/Q2:
//
//	SELECT A.att_1, ..., B.att_1, ...
//	FROM Sensors A, Sensors B
//	WHERE A.temp - B.temp > delta [AND distance(A.x,A.y,B.x,B.y) > 100]
//	ONCE
//
// Two knobs reproduce the paper's parameter space: the ratio of join
// attributes to attributes overall (1/3 = "33%", 3/5 = "60%", plus the
// sweeps of Figs. 12 and 13), and the fraction of nodes contributing to
// the result, controlled by delta and calibrated against the exact
// snapshot semantics.
package workload

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"sensjoin/internal/core"
	"sensjoin/internal/geom"
)

// Preset describes one experiment query family.
type Preset struct {
	// Name labels the preset in tables (e.g. "33% join attrs").
	Name string
	// JoinAttrs is the number of join attributes (1 or 3).
	JoinAttrs int
	// TotalAttrs is the number of attributes per relation overall
	// (shipped attributes).
	TotalAttrs int
	// selects lists the non-join SELECT attributes per relation.
	selects []string
	// distance is true when the preset adds the Q2-style
	// distance(A,B) > 100 join condition (3 join attributes).
	distance bool
}

// Build renders the preset's query for a given delta.
func (p Preset) Build(delta float64) string {
	var sel []string
	appendBoth := func(attr string) {
		sel = append(sel, "A."+attr, "B."+attr)
	}
	appendBoth("temp")
	for _, a := range p.selects {
		appendBoth(a)
	}
	var conds []string
	// Exact round-trip formatting: the calibrated delta must survive the
	// query text unchanged, or boundary nodes flip sides.
	conds = append(conds, fmt.Sprintf("A.temp - B.temp > %s",
		strconv.FormatFloat(delta, 'g', -1, 64)))
	if p.distance {
		conds = append(conds, "distance(A.x, A.y, B.x, B.y) > 100")
	}
	return fmt.Sprintf("SELECT %s FROM Sensors A, Sensors B WHERE %s ONCE",
		strings.Join(sel, ", "), strings.Join(conds, " AND "))
}

// Ratio returns the join-attributes-to-total ratio.
func (p Preset) Ratio() float64 { return float64(p.JoinAttrs) / float64(p.TotalAttrs) }

// CountQuery renders an aggregate variant of the Q1 band join: COUNT
// folds matching pairs at the base station without materializing rows,
// keeping the result computation linear in the match count — the form
// the scale experiment uses at very large deployments.
func CountQuery(delta float64) string {
	return fmt.Sprintf("SELECT COUNT(A.temp) FROM Sensors A, Sensors B WHERE A.temp - B.temp > %s ONCE",
		strconv.FormatFloat(delta, 'g', -1, 64))
}

// Ratio33 is the paper's first default: one join attribute (temp) out of
// three shipped attributes (temp, hum, pres).
func Ratio33() Preset {
	return Preset{
		Name: "33% join attrs", JoinAttrs: 1, TotalAttrs: 3,
		selects: []string{"hum", "pres"},
	}
}

// Ratio60 is the paper's second default: three join attributes (temp, x,
// y via the distance condition) out of five shipped attributes.
func Ratio60() Preset {
	return Preset{
		Name: "60% join attrs", JoinAttrs: 3, TotalAttrs: 5,
		selects: []string{"hum", "pres"}, distance: true,
	}
}

// extraAttrs is the pool of non-join attributes for the ratio sweeps.
var extraAttrs = []string{"hum", "pres", "light", "x"}

// RatioSweep3JA builds the Fig. 12 presets: three join attributes and
// total attributes from 3 to 5.
func RatioSweep3JA() []Preset {
	var out []Preset
	for total := 3; total <= 5; total++ {
		out = append(out, Preset{
			Name:      fmt.Sprintf("3/%d join attrs", total),
			JoinAttrs: 3, TotalAttrs: total,
			selects: extraAttrs[:total-3], distance: true,
		})
	}
	return out
}

// RatioSweep1JA builds the Fig. 13 presets: one join attribute and total
// attributes from 1 to 5.
func RatioSweep1JA() []Preset {
	var out []Preset
	for total := 1; total <= 5; total++ {
		out = append(out, Preset{
			Name:      fmt.Sprintf("1/%d join attrs", total),
			JoinAttrs: 1, TotalAttrs: total,
			selects: extraAttrs[:total-1],
		})
	}
	return out
}

// nodeSample is one node's calibration view.
type nodeSample struct {
	temp float64
	pos  geom.Point
}

// Calibration reads every node's temp at t = 0, and everything it
// derives is a pure function of those readings and the preset. Both memos
// therefore hang off the environment (Environment.Memo, keyed by the
// deployment's position slice): they are shared by every runner over the
// same deployment and environment, they outlast the environment's
// snapshot ring (executions at other instants never discard a
// calibration), and they are released with the environment — when a
// private runner is dropped, or when core.ResetSetupCache drops a shared
// one. A package-level map keyed by deployment or environment pointers
// would instead keep every deployment ever calibrated reachable for the
// life of the process.

// sampleKey is the memo key of the sorted calibration samples.
type sampleKey struct{}

// calibKey is the memo key of one Calibrate result.
type calibKey struct {
	preset string
	target float64
}

type calibResult struct {
	delta, frac float64
}

// presetKey renders every field that influences calibration, so distinct
// presets never collide.
func (p Preset) presetKey() string {
	return fmt.Sprintf("%s|%d|%d|%t|%s",
		p.Name, p.JoinAttrs, p.TotalAttrs, p.distance, strings.Join(p.selects, ","))
}

// sampleNodes returns the calibration samples — every sensor node's temp
// at t = 0 with its position, sorted by temp — computed once per
// (environment, deployment); the slice is shared and read-only.
func sampleNodes(r *core.Runner) []nodeSample {
	return r.Env.Memo(r.Dep.Pos, sampleKey{}, func() any {
		temp := r.Env.Snapshot(r.Dep.Pos, 0).Column("temp")
		out := make([]nodeSample, 0, r.Dep.N()-1)
		for i := 1; i < r.Dep.N(); i++ {
			out = append(out, nodeSample{temp: temp[i], pos: r.Dep.Pos[i]})
		}
		sort.Slice(out, func(i, j int) bool { return out[i].temp < out[j].temp })
		return out
	}).([]nodeSample)
}

// fractionOf computes, exactly and without simulating, the fraction of
// the sampled nodes that contribute to the result of p.Build(delta): a
// node contributes as A when some node with a sufficiently lower
// temperature (and, for distance presets, at distance > 100 m) exists,
// symmetrically as B.
func fractionOf(nodes []nodeSample, p Preset, delta float64) float64 {
	n := len(nodes)
	if n == 0 {
		return 0
	}
	hasPartner := func(i int, lo, hi int) bool {
		for j := lo; j < hi; j++ {
			if !p.distance || geom.Dist(nodes[i].pos, nodes[j].pos) > 100 {
				return true
			}
		}
		return false
	}
	// Sorted by temperature: node i can act as A against any j with
	// temps[j] < temps[i] - delta, the prefix below, and as B against any
	// j with temps[j] > temps[i] + delta, the suffix from above on. Both
	// thresholds rise with i (rounding is monotone), so the two cuts only
	// ever move forward: one pass, no search per node.
	c, below, above := 0, 0, 0
	for i := range nodes {
		for below < n && nodes[below].temp < nodes[i].temp-delta {
			below++
		}
		for above < n && nodes[above].temp <= nodes[i].temp+delta {
			above++
		}
		if hasPartner(i, 0, below) || hasPartner(i, above, n) {
			c++
		}
	}
	return float64(c) / float64(n)
}

// Calibrate finds the delta whose contributing fraction is closest to
// target, by bisection (the fraction is non-increasing in delta). It
// returns the delta and the fraction actually achieved. Results are
// memoized per (environment, deployment, preset, target): sweep cells
// over the same deployment skip the 60-iteration search entirely.
func Calibrate(r *core.Runner, p Preset, target float64) (delta, frac float64) {
	res := r.Env.Memo(r.Dep.Pos, calibKey{preset: p.presetKey(), target: target}, func() any {
		delta, frac := calibrate(r, p, target)
		return calibResult{delta: delta, frac: frac}
	}).(calibResult)
	return res.delta, res.frac
}

func calibrate(r *core.Runner, p Preset, target float64) (delta, frac float64) {
	nodes := sampleNodes(r)
	lo, hi := 0.0, 0.0
	// Find an upper bound with fraction below target.
	span := nodes[len(nodes)-1].temp - nodes[0].temp
	hi = span + 1
	if fractionOf(nodes, p, hi) > target {
		return hi, fractionOf(nodes, p, hi) // cannot go lower
	}
	for iter := 0; iter < 60; iter++ {
		mid := (lo + hi) / 2
		if fractionOf(nodes, p, mid) > target {
			lo = mid
		} else {
			hi = mid
		}
	}
	// Prefer the boundary whose fraction is closest to the target.
	fLo, fHi := fractionOf(nodes, p, lo), fractionOf(nodes, p, hi)
	if target-fHi <= fLo-target {
		return hi, fHi
	}
	return lo, fLo
}
