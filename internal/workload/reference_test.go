package workload

import (
	"math"
	"runtime"
	"slices"
	"sort"
	"testing"

	"sensjoin/internal/core"
	"sensjoin/internal/field"
	"sensjoin/internal/geom"
	"sensjoin/internal/routing"
	"sensjoin/internal/topology"
)

// The calibration as it was before the readings were sorted once per
// column and counted by binary search: samples of 24 bytes sorted with
// sort.Slice, the two-pointer walk for every preset and the bisection
// over it. Calibrate must return the same δ and fraction bit for bit,
// because both reach every table downstream.

// refSampleNodes is every sensor node's t = 0 temp with its position,
// sorted by temp with sort.Slice; a fresh slice on every call.
func refSampleNodes(r *core.Runner) []nodeSample {
	temp := r.Env.Snapshot(r.Dep.Pos, 0).Column("temp")
	out := make([]nodeSample, 0, r.Dep.N()-1)
	for i := 1; i < r.Dep.N(); i++ {
		out = append(out, nodeSample{temp: temp[i], pos: r.Dep.Pos[i]})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].temp < out[j].temp })
	return out
}

// refFractionOf is the two-pointer walk, the distance test applied only
// for distance presets.
func refFractionOf(nodes []nodeSample, p Preset, delta float64) float64 {
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

// refCalibrate is the bisection over refFractionOf.
func refCalibrate(nodes []nodeSample, p Preset, target float64) (delta, frac float64) {
	lo, hi := 0.0, 0.0
	span := nodes[len(nodes)-1].temp - nodes[0].temp
	hi = span + 1
	if refFractionOf(nodes, p, hi) > target {
		return hi, refFractionOf(nodes, p, hi)
	}
	for iter := 0; iter < 60; iter++ {
		mid := (lo + hi) / 2
		if refFractionOf(nodes, p, mid) > target {
			lo = mid
		} else {
			hi = mid
		}
	}
	fLo, fHi := refFractionOf(nodes, p, lo), refFractionOf(nodes, p, hi)
	if target-fHi <= fLo-target {
		return hi, fHi
	}
	return lo, fLo
}

func allPresets() []Preset {
	presets := []Preset{Ratio33(), Ratio60()}
	presets = append(presets, RatioSweep3JA()...)
	return append(presets, RatioSweep1JA()...)
}

var referenceTargets = []float64{0.01, 0.04, 0.05, 0.1, 0.25, 0.6}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func TestCalibrateMatchesReference(t *testing.T) {
	for _, seed := range []int64{1, 7, 42, 101} {
		for _, n := range []int{150, 1500, 20000} {
			// Repair, as at X7: rejection sampling rarely connects
			// 20 000 nodes.
			dep, err := topology.Generate(topology.Config{
				Nodes: n, Area: topology.ScaledArea(n), Range: 50, Seed: seed, Repair: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			// Two environments of one seed: the reference fills its
			// column serially, Calibrate (at 20 000 nodes) in parallel.
			tree := routing.BuildTree(dep.Neighbors, topology.BaseStation)
			fresh := func() *core.Runner {
				return core.NewRunnerFromSetup(dep, field.StandardEnvironment(dep.Area, seed+1000), tree, core.SetupConfig{})
			}
			r, nodes := fresh(), refSampleNodes(fresh())
			for _, p := range allPresets() {
				for _, target := range referenceTargets {
					wantDelta, wantFrac := refCalibrate(nodes, p, target)
					delta, frac := Calibrate(r, p, target)
					if !sameBits(delta, wantDelta) || !sameBits(frac, wantFrac) {
						t.Fatalf("seed %d, %d nodes, %s, target %v: Calibrate = (%v, %v), reference (%v, %v)",
							seed, n, p.Name, target, delta, frac, wantDelta, wantFrac)
					}
				}
			}
		}
	}
}

// Readings rounded to half a degree tie in long runs, so cuts fall inside
// runs of equal values and δs land on exact differences.
func TestCalibrateMatchesReferenceOnTies(t *testing.T) {
	nodes := refSampleNodes(runner(t, 1500))
	for i := range nodes {
		nodes[i].temp = math.Round(nodes[i].temp*2) / 2
	}
	temps := make([]float64, len(nodes))
	for i := range nodes {
		temps[i] = nodes[i].temp
	}
	if len(slices.Compact(slices.Clone(temps))) > len(temps)/10 {
		t.Fatal("the fixture has too few ties")
	}
	span := temps[len(temps)-1] - temps[0]
	for _, p := range allPresets() {
		f := func(d float64) float64 { return bandFraction(temps, d) }
		if p.distance {
			f = func(d float64) float64 { return fractionOf(nodes, d) }
		}
		for _, target := range referenceTargets {
			wantDelta, wantFrac := refCalibrate(nodes, p, target)
			if delta, frac := bisect(f, span, target); !sameBits(delta, wantDelta) || !sameBits(frac, wantFrac) {
				t.Fatalf("%s, target %v: calibrated (%v, %v), reference (%v, %v)",
					p.Name, target, delta, frac, wantDelta, wantFrac)
			}
		}
	}
}

// A calibration without the distance condition keeps its sorted readings,
// 8 bytes per node, and nothing per node besides; a second preset at the
// same target reuses the first one's result without allocating.
func TestCalibrationMemoBytes(t *testing.T) {
	const n = 20000
	r, err := core.NewRunner(core.SetupConfig{Nodes: n, Seed: 42, Private: true})
	if err != nil {
		t.Fatal(err)
	}
	// The t = 0 column lives in the snapshot ring whoever fills it.
	r.Env.Snapshot(r.Dep.Pos, 0).Column("temp")
	before := liveHeap()
	Calibrate(r, Ratio33(), 0.01)
	kept := int64(liveHeap()) - int64(before)
	t.Logf("a Ratio33 calibration keeps %d bytes, %.2f per node", kept, float64(kept)/n)
	if limit := int64(8*n + 16<<10); kept > limit {
		t.Fatalf("a Ratio33 calibration keeps %d bytes (%.1f per node), want at most %d", kept, float64(kept)/n, limit)
	}
	runtime.KeepAlive(r)

	other := RatioSweep1JA()[4]
	if allocs := testing.AllocsPerRun(10, func() { Calibrate(r, other, 0.01) }); allocs != 0 {
		t.Fatalf("a second preset without the distance condition allocates %v times", allocs)
	}
}

// liveHeap is the heap still reachable after a forced collection.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}
