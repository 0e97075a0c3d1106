package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
)

// benchSpec is BENCHMARK.json: the contract the driver reads, and the
// one place the bounds are written down.
type benchSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readSpec(root string) (*benchSpec, error) {
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	spec := new(benchSpec)
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(spec); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return spec, nil
}

// result is the JSON line one run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runChild runs one workload in a child process of this same binary
// and parses the last line of its standard output.
func runChild(root, workload string, seed int64, seconds float64, trace int) (*result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "-workload", workload, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", strconv.Itoa(trace))
	cmd.Dir = root
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s (trace %d): %w", workload, trace, err)
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	res := new(result)
	if err := json.Unmarshal(lines[len(lines)-1], res); err != nil {
		return nil, fmt.Errorf("%s: last line of output: %w", workload, err)
	}
	return res, nil
}

// worsening is how much worse b is than a, as a share of a, in the
// metric's own direction; negative when b is better.
func worsening(a, b float64, better string) float64 {
	if a == 0 {
		return 0
	}
	if better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// runSelfcheck measures the benchmark against itself: every workload
// runs as two interleaved sets A,B,A,B,A,B of the same binary, and the
// sets' medians must agree within each end-to-end metric's bound in
// both directions. One traced run per set must agree exactly on every
// per-layer metric that is a simulated statistic or a byte count.
func runSelfcheck(root string, seed int64, seconds float64) error {
	spec, err := readSpec(root)
	if err != nil {
		return err
	}
	bad := 0
	for _, w := range spec.Workloads {
		sets := [2]map[string][]float64{{}, {}}
		for i := 0; i < 6; i++ {
			res, err := runChild(root, w.Name, seed, seconds, 0)
			if err != nil {
				return err
			}
			if !res.Correct {
				return fmt.Errorf("%s: %d of %d operations failed", w.Name, res.Failed, res.Attempted)
			}
			for name, m := range res.Metrics {
				sets[i%2][name] = append(sets[i%2][name], m.Value)
			}
		}
		fmt.Printf("%s (seed %d, %gs windows, 3 runs per set)\n", w.Name, seed, seconds)
		fmt.Printf("  %-18s %-6s %36s %36s %8s %6s\n", "metric", "unit", "set A q1/median/q3", "set B q1/median/q3", "gap", "bound")
		for _, m := range spec.EndToEnd {
			a, b := sets[0][m.Name], sets[1][m.Name]
			gap := max(worsening(median(a), median(b), m.Better), worsening(median(b), median(a), m.Better))
			verdict := ""
			if gap > m.Bound {
				verdict = "  EXCEEDS BOUND"
				bad++
			}
			q := func(xs []float64) string {
				return fmt.Sprintf("%.4g/%.4g/%.4g", quantileOf(xs, 0.25), median(xs), quantileOf(xs, 0.75))
			}
			fmt.Printf("  %-18s %-6s %36s %36s %7.2f%% %5.0f%%%s\n", m.Name, m.Unit, q(a), q(b), 100*gap, 100*m.Bound, verdict)
		}
		var traced [2]*result
		for i := range traced {
			if traced[i], err = runChild(root, w.Name, seed, seconds, 1); err != nil {
				return err
			}
		}
		for _, d := range spec.PerLayer {
			a, b := traced[0].Metrics[d.Name].Value, traced[1].Metrics[d.Name].Value
			if !exactLayer[d.Name] || (a == 0 && b == 0) {
				continue
			}
			verdict := "identical"
			if a != b {
				verdict = fmt.Sprintf("DIFFERS: %v", b)
				bad++
			}
			fmt.Printf("  exact %-36s %16v %s\n", d.Name, a, verdict)
		}
	}
	if bad > 0 {
		return fmt.Errorf("selfcheck: %d comparisons failed", bad)
	}
	return nil
}
