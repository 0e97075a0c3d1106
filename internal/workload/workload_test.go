package workload

import (
	"math"
	"runtime"
	"sort"
	"strings"
	"testing"

	"sensjoin/internal/core"
	"sensjoin/internal/field"
	"sensjoin/internal/geom"
	"sensjoin/internal/query"
	"sensjoin/internal/topology"
)

func runner(t *testing.T, nodes int) *core.Runner {
	t.Helper()
	r, err := core.NewRunner(core.SetupConfig{Nodes: nodes, Seed: 101})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestPresetRatios(t *testing.T) {
	if r := Ratio33().Ratio(); math.Abs(r-1.0/3) > 1e-9 {
		t.Fatalf("Ratio33 ratio = %g", r)
	}
	if r := Ratio60().Ratio(); math.Abs(r-0.6) > 1e-9 {
		t.Fatalf("Ratio60 ratio = %g", r)
	}
}

// The built queries must parse and their analysis must exhibit exactly
// the advertised join-attribute and shipped-attribute counts.
func TestPresetAnalysis(t *testing.T) {
	presets := []Preset{Ratio33(), Ratio60()}
	presets = append(presets, RatioSweep3JA()...)
	presets = append(presets, RatioSweep1JA()...)
	for _, p := range presets {
		src := p.Build(1.5)
		q, err := query.Parse(src)
		if err != nil {
			t.Fatalf("%s: parse: %v", p.Name, err)
		}
		a, err := query.Analyze(q)
		if err != nil {
			t.Fatalf("%s: analyze: %v", p.Name, err)
		}
		for alias := 0; alias < 2; alias++ {
			if got := len(a.JoinAttrs[alias]); got != p.JoinAttrs {
				t.Fatalf("%s alias %d: %d join attrs, want %d (%v)",
					p.Name, alias, got, p.JoinAttrs, a.JoinAttrs[alias])
			}
			if got := len(a.ShippedAttrs[alias]); got != p.TotalAttrs {
				t.Fatalf("%s alias %d: %d shipped attrs, want %d (%v)",
					p.Name, alias, got, p.TotalAttrs, a.ShippedAttrs[alias])
			}
		}
	}
}

func TestSweepSizes(t *testing.T) {
	if got := len(RatioSweep3JA()); got != 3 {
		t.Fatalf("RatioSweep3JA has %d presets, want 3", got)
	}
	if got := len(RatioSweep1JA()); got != 5 {
		t.Fatalf("RatioSweep1JA has %d presets, want 5", got)
	}
}

func TestBuildQueryShape(t *testing.T) {
	src := Ratio60().Build(2.5)
	for _, want := range []string{"A.temp - B.temp > 2.5", "distance(A.x, A.y, B.x, B.y) > 100", "ONCE"} {
		if !strings.Contains(src, want) {
			t.Fatalf("query %q missing %q", src, want)
		}
	}
	if strings.Contains(Ratio33().Build(1), "distance") {
		t.Fatal("Ratio33 must not have a distance condition")
	}
}

// The fraction calibration probes must match the ground-truth
// contributing fraction from the actual join machinery.
func TestFractionMatchesGroundTruth(t *testing.T) {
	r := runner(t, 120)
	for _, p := range []Preset{Ratio33(), Ratio60()} {
		f, _ := fraction(r, p.distance)
		for _, delta := range []float64{0.5, 2, 5} {
			want := f(delta)
			prep, err := r.Prepare(p.Build(delta))
			if err != nil {
				t.Fatal(err)
			}
			truth, err := core.GroundTruth(r.Exec(prep, 0))
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(want-truth.Fraction()) > 1e-9 {
				t.Fatalf("%s delta=%g: fraction=%g, ground truth=%g",
					p.Name, delta, want, truth.Fraction())
			}
		}
	}
}

func TestFractionMonotone(t *testing.T) {
	r := runner(t, 150)
	for _, distance := range []bool{false, true} {
		frac, _ := fraction(r, distance)
		prev := 2.0
		for _, delta := range []float64{0, 0.5, 1, 2, 4, 8, 100} {
			f := frac(delta)
			if f > prev+1e-12 {
				t.Fatalf("distance %t: fraction increased with delta at %g: %g > %g", distance, delta, f, prev)
			}
			prev = f
		}
		if frac(1000) != 0 {
			t.Fatalf("distance %t: impossible delta should yield zero fraction", distance)
		}
	}
}

func TestCalibrate(t *testing.T) {
	r := runner(t, 300)
	for _, p := range []Preset{Ratio33(), Ratio60()} {
		for _, target := range []float64{0.05, 0.25, 0.6} {
			delta, frac := Calibrate(r, p, target)
			if delta < 0 {
				t.Fatalf("negative delta %g", delta)
			}
			// With 300 nodes the fraction is quantized in steps of
			// 1/300; allow a generous band.
			if math.Abs(frac-target) > 0.05 {
				t.Fatalf("%s target %.2f: calibrated fraction %.3f (delta %g)",
					p.Name, target, frac, delta)
			}
		}
	}
}

func TestCalibratedQueryRunsAtTargetFraction(t *testing.T) {
	r := runner(t, 200)
	p := Ratio33()
	delta, want := Calibrate(r, p, 0.10)
	res, err := r.Run(p.Build(delta), core.External{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Fraction()-want) > 1e-9 {
		t.Fatalf("simulated fraction %.3f != calibrated %.3f", res.Fraction(), want)
	}
}

// fractionOfSearch is the contributing fraction as it was first written,
// one binary search per node and side: the reference the two-search count
// (bandFraction) and the cursor walk (fractionOf) must agree with
// exactly, because a fraction that differs by one node moves a
// calibrated δ and with it every table downstream.
func fractionOfSearch(nodes []nodeSample, p Preset, delta float64) float64 {
	n := len(nodes)
	if n == 0 {
		return 0
	}
	contributes := make([]bool, n)
	hasPartner := func(i int, lo, hi int) bool {
		for j := lo; j < hi; j++ {
			if !p.distance || geom.Dist(nodes[i].pos, nodes[j].pos) > 100 {
				return true
			}
		}
		return false
	}
	for i := 0; i < n; i++ {
		cut := sort.Search(n, func(j int) bool { return nodes[j].temp >= nodes[i].temp-delta })
		if cut > 0 && hasPartner(i, 0, cut) {
			contributes[i] = true
		}
	}
	for i := 0; i < n; i++ {
		if contributes[i] {
			continue
		}
		cut := sort.Search(n, func(j int) bool { return nodes[j].temp > nodes[i].temp+delta })
		if cut < n && hasPartner(i, cut, n) {
			contributes[i] = true
		}
	}
	c := 0
	for _, b := range contributes {
		if b {
			c++
		}
	}
	return float64(c) / float64(n)
}

// Seeds × presets × every δ a calibration probes (the bisection's own
// midpoints for three targets), plus the δs where a cut sits on a tie:
// zero, exact differences of two readings, and readings made equal.
func TestFractionOfMatchesBinarySearch(t *testing.T) {
	presets := allPresets()
	for _, seed := range []int64{1, 7, 42, 101} {
		r, err := core.NewRunner(core.SetupConfig{Nodes: 300, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		nodes := refSampleNodes(r)
		for i := 10; i < len(nodes); i += 10 {
			nodes[i].temp = nodes[i-1].temp // ties
		}
		temps := make([]float64, len(nodes))
		for i := range nodes {
			temps[i] = nodes[i].temp
		}
		span := nodes[len(nodes)-1].temp - nodes[0].temp
		deltas := []float64{0, span, span + 1, nodes[20].temp - nodes[3].temp, nodes[len(nodes)-1].temp - nodes[150].temp}
		for _, p := range presets {
			check := func(delta float64) float64 {
				got := bandFraction(temps, delta)
				if p.distance {
					got = fractionOf(nodes, delta)
				}
				want := fractionOfSearch(nodes, p, delta)
				if got != want {
					t.Fatalf("seed %d, %s, δ=%v: fraction %v, binary search says %v", seed, p.Name, delta, got, want)
				}
				return got
			}
			for _, d := range deltas {
				check(d)
			}
			for _, target := range []float64{0.01, 0.05, 0.3} {
				lo, hi := 0.0, span+1
				for iter := 0; iter < 60; iter++ {
					mid := (lo + hi) / 2
					if check(mid) > target {
						lo = mid
					} else {
						hi = mid
					}
				}
			}
		}
	}
}

// BenchmarkCalibrate times a cold Ratio33 calibration of a repaired
// 100k-node deployment, as X7 and sim_scale run it: every iteration gets
// a fresh environment, so the column fill, the sort and the search all
// run.
func BenchmarkCalibrate(b *testing.B) {
	const n = 100000
	dep, err := topology.GenerateParallel(topology.Config{
		Nodes: n, Area: topology.ScaledArea(n), Range: 50, Seed: 42, Repair: true,
	}, runtime.GOMAXPROCS(0))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := &core.Runner{Dep: dep, Env: field.StandardEnvironment(dep.Area, 1042)}
		Calibrate(r, Ratio33(), 0.01)
	}
}
