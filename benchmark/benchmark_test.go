package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"testing"
	"time"

	"sensjoin/internal/core"
)

func TestSliceRateIsMedianOfSlices(t *testing.T) {
	// Five 1 s slices with 10, 10, 2, 10 and 30 completions: a stall
	// and a burst. The mean is 12.4/s; the median slice says 10/s.
	var done []time.Duration
	for slice, n := range []int{10, 10, 2, 10, 30} {
		for i := 0; i < n; i++ {
			done = append(done, time.Duration(slice)*time.Second+time.Duration(i)*time.Millisecond)
		}
	}
	done = append(done, 5*time.Second+time.Millisecond) // beyond the last whole slice: ignored
	if got := sliceRate(done, 5500*time.Millisecond, time.Second); got != 10 {
		t.Fatalf("sliceRate = %v, want 10", got)
	}
	if got := sliceRate(done[:20], 4*time.Second, 2*time.Second); got != 5 {
		t.Fatalf("sliceRate over 2 s slices = %v, want 5 (counts 20 and 0, median 10, per 2 s)", got)
	}
}

func TestTailPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n   int
		pct float64
	}{{50, 50}, {99, 50}, {100, 90}, {199, 90}, {200, 95}, {999, 95}, {1000, 99}, {10000, 99.9}, {100000, 99.99}} {
		xs := make([]float64, c.n)
		for i := range xs {
			xs[i] = float64(c.n - i) // descending: the estimator must not rely on order
		}
		pct, v := tailPercentile(xs)
		if pct != c.pct {
			t.Errorf("n=%d: percentile %v, want %v", c.n, pct, c.pct)
		}
		if beyond := float64(c.n) - v; pct > 50 && beyond < 10 {
			t.Errorf("n=%d: p%v = %v leaves only %v samples beyond it", c.n, pct, v, beyond)
		}
	}
}

func TestHashRowsIgnoresOrderOnly(t *testing.T) {
	a := [][]float64{{1, 2, 3}, {4, 5, 6}, {7, 8, 9}, {1, 2, 3}}
	b := [][]float64{{7, 8, 9}, {1, 2, 3}, {1, 2, 3}, {4, 5, 6}}
	if hashRows(a) != hashRows(b) {
		t.Fatal("a permutation of the rows changed the hash")
	}
	for name, other := range map[string][][]float64{
		"one value differs in its last bit": {{1, 2, math.Nextafter(3, 4)}, {4, 5, 6}, {7, 8, 9}, {1, 2, 3}},
		"negative zero":                     {{1, 2, 3}, {4, 5, 6}, {7, 8, 9}, {1, 2, math.Copysign(0, -1)}},
		"a duplicate row dropped":           {{1, 2, 3}, {4, 5, 6}, {7, 8, 9}},
		"a duplicate pair replaced":         {{4, 5, 6}, {4, 5, 6}, {7, 8, 9}, {1, 2, 3}},
		"values moved between columns":      {{2, 1, 3}, {4, 5, 6}, {7, 8, 9}, {1, 2, 3}},
		"rows split differently":            {{1, 2}, {3, 4, 5, 6}, {7, 8, 9}, {1, 2, 3}},
	} {
		if hashRows(a) == hashRows(other) {
			t.Errorf("%s: hash did not change", name)
		}
	}
	if allocs := testing.AllocsPerRun(10, func() { hashRows(a) }); allocs != 0 {
		t.Errorf("hashRows allocates %v times per call, want 0", allocs)
	}
}

func TestSelfSecondsSubtractsMergedChildren(t *testing.T) {
	spans := []span{
		{ID: 0, Name: "window", Start: 0, End: 10e9, Parent: -1},
		{ID: 1, Name: "op", Start: 1e9, End: 4e9, Parent: 0},
		{ID: 2, Name: "op", Start: 3e9, End: 6e9, Parent: 0}, // overlaps span 1: 1..6 covered once
		{ID: 3, Name: "inner", Start: 3e9, End: 5e9, Parent: 2},
		{ID: 4, Name: "op", Start: 9e9, End: 12e9, Parent: 0}, // runs past its parent: clipped
	}
	self := selfSeconds(spans)
	if self["window"] != 4 { // 10 - (5 + 1)
		t.Errorf("window self = %v, want 4", self["window"])
	}
	if self["op"] != 7 { // 3 + (3 - 2) + 3
		t.Errorf("op self = %v, want 7", self["op"])
	}
	if self["inner"] != 2 {
		t.Errorf("inner self = %v, want 2", self["inner"])
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestBenchmarkJSONMatchesProgram keeps BENCHMARK.json, which the
// driver reads, and the tables the program reports from in step, and
// checks both against the contract's limits.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	spec, err := readSpec(root)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	name := func(kind, n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("%s name %q is outside [A-Za-z0-9_.-]{1,64}", kind, n)
		}
		if seen[n] {
			t.Errorf("%s name %q is used twice", kind, n)
		}
		seen[n] = true
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program has %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		name("workload", w.Name)
		if workloads[w.Name] == nil {
			t.Errorf("workload %q is not in the program", w.Name)
		}
		if w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %q: why has %d characters, want 1..200", w.Name, len(w.Why))
		}
	}
	if len(spec.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, the program reports %d", len(spec.EndToEnd), len(endToEnd))
	}
	for i, m := range spec.EndToEnd {
		name("metric", m.Name)
		if d := endToEnd[i]; m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("end_to_end[%d] = %+v, the program reports %+v", i, m, d)
		}
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("unit %q of %s is outside the contract's characters", m.Unit, m.Name)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("bound %v of %s is outside (0, 0.25]", m.Bound, m.Name)
		}
	}
	if !seen["setup_s"] {
		t.Error("no setup_s among the end-to-end metrics")
	}
	if len(spec.PerLayer) != len(perLayer) || len(perLayer) > 128 {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the program reports %d (at most 128)", len(spec.PerLayer), len(perLayer))
	}
	for i, m := range spec.PerLayer {
		name("metric", m.Name)
		if d := perLayer[i]; m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per_layer[%d] = %+v, the program reports %+v", i, m, d)
		}
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("unit %q of %s is outside the contract's characters", m.Unit, m.Name)
		}
	}
	for n := range exactLayer {
		if !seen[n] {
			t.Errorf("exactLayer names %q, which is not a per-layer metric", n)
		}
	}
	if spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("run_seconds = %d, want 1..60", spec.RunSeconds)
	}
	if len(spec.Paths) != 1 || spec.Paths[0] != "benchmark" {
		t.Errorf("paths = %v, want [benchmark]", spec.Paths)
	}
}

// smoke shrinks every workload so that the whole file runs in seconds.
func smoke(t *testing.T, traced bool) options {
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	o := options{
		seed: 7, seconds: time.Second, root: root, outDir: t.TempDir(),
		sizes: sizes{serveNodes: 60, servePointTexts: 64, suiteNodes: 200, scaleNodes: 3000, ramp: 200 * time.Millisecond, replay: 100 * time.Millisecond},
	}
	if traced {
		o.rec = newRecorder()
	}
	return o
}

// TestSmokeEveryWorkload runs each workload untraced and traced at
// small sizes and checks the result line: valid JSON with exactly the
// contract's keys, every metric of the run's kind present with its
// unit, the ones the workload measures non-zero, and nothing failed.
func TestSmokeEveryWorkload(t *testing.T) {
	for name, fn := range workloads {
		for _, traced := range []bool{false, true} {
			o := smoke(t, traced)
			rep, err := fn(o)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			if rep.failed != 0 || rep.attempted == 0 {
				t.Errorf("%s traced=%v: %d of %d operations failed", name, traced, rep.failed, rep.attempted)
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			line, err := resultLine(rep, defs)
			if err != nil {
				t.Fatalf("%s traced=%v: %v in %v", name, traced, err, rep.values)
			}
			var got map[string]json.RawMessage
			if err := json.Unmarshal(line, &got); err != nil || len(got) != 4 {
				t.Fatalf("%s: result line %s: %v", name, line, err)
			}
			var res result
			if err := json.Unmarshal(line, &res); err != nil {
				t.Fatal(err)
			}
			if !res.Correct || len(res.Metrics) != len(defs) {
				t.Errorf("%s traced=%v: correct=%v with %d metrics, want true with %d", name, traced, res.Correct, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.name]
				if !ok || m.Unit != d.unit {
					t.Errorf("%s: metric %s missing or with unit %q, want %q", name, d.name, m.Unit, d.unit)
				}
				if !traced && !(m.Value > 0) {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, d.name, m.Value)
				}
			}
			if traced {
				if len(o.rec.spans) == 0 {
					t.Errorf("%s: the traced run recorded no spans", name)
				}
				if v := rep.values["runtime.cpu_ms_per_op"]; !(v > 0) {
					t.Errorf("%s: runtime.cpu_ms_per_op = %v, want > 0", name, v)
				}
			}
		}
	}
}

// TestCorruptOracleFailsTheRun corrupts one oracle value per kind of
// oracle and expects failed operations, which main turns into a
// non-zero exit.
func TestCorruptOracleFailsTheRun(t *testing.T) {
	o := smoke(t, false)
	corrupt := servePoint
	corrupt.texts = func(r *core.Runner, o options) ([]text, error) {
		texts, err := servePoint.texts(r, o)
		if err == nil {
			texts[3].ref.hash++
		}
		return texts, err
	}
	rep, err := runServe(corrupt, o)
	if err != nil {
		t.Fatal(err)
	}
	if rep.failed == 0 {
		t.Error("serve_point: a corrupted table hash went unnoticed")
	}

	// sim_scale: the first run stores the golden file, the second finds
	// one whose event count is off by one.
	if _, err := runSimScale(o); err != nil {
		t.Fatal(err)
	}
	files, _ := filepath.Glob(filepath.Join(o.outDir, "golden", "*.json"))
	if len(files) != 1 {
		t.Fatalf("golden files after the first run: %v, want one", files)
	}
	b, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	var facts scaleFacts
	if err := json.Unmarshal(b, &facts); err != nil {
		t.Fatal(err)
	}
	facts.SensEvents++
	b, _ = json.Marshal(facts)
	if err := os.WriteFile(files[0], b, 0o644); err != nil {
		t.Fatal(err)
	}
	if rep, err = runSimScale(o); err != nil {
		t.Fatal(err)
	}
	if rep.failed == 0 {
		t.Error("sim_scale: a corrupted golden event count went unnoticed")
	}

	// paper_suite: a reference that differs in one digit.
	ref, err := suiteReference(o)
	if err != nil {
		t.Fatal(err)
	}
	p, err := runSuitePass(o, nil, suiteConfig(o, 2), ref[:len(ref)-2]+"9\n", 0)
	if err != nil {
		t.Fatal(err)
	}
	if p.ok {
		t.Error("paper_suite: a pass matched a corrupted reference")
	}
}
