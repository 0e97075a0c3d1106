package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sensjoin/internal/bench"
)

// runCLI is one invocation of the binary's run with captured streams.
func runCLI(args ...string) (stdout, stderr string, code int) {
	var out, errOut bytes.Buffer
	code = run(args, &out, &errOut)
	return out.String(), errOut.String(), code
}

// What the command line refuses, with which exit status (2 for a usage
// error, 1 for an experiment that fails), and that the refusal says what
// to do; -h prints the usage and exits 0.
func TestRunRefuses(t *testing.T) {
	kept := filepath.Join(t.TempDir(), "kept.json")
	if err := os.WriteFile(kept, []byte("kept"), 0o644); err != nil {
		t.Fatal(err)
	}
	type refusal struct {
		name string
		args []string
		code int
		want []string // substrings of stderr
	}
	cases := []refusal{
		{"unknown id", []string{"-only", "E1a,E99"}, 2, []string{`"E99"`, "E1a", "A2", "X6", "L1", "X7", "X10"}},
		{"L1 without rates", []string{"-only", "L1", "-nodes", "150"}, 1, []string{"L1", "-loss"}},
		{"X7 without sizes", []string{"-only", "X7"}, 1, []string{"X7", "-scale"}},
		{"two results, one file", []string{"-only", "X8,X10", "-out", kept}, 2, []string{"-out", "X8", "X10"}},
		{"no result to write", []string{"-only", "E1a", "-out", kept}, 2, []string{"-out"}},
		{"bad rate", []string{"-only", "L1", "-loss", "1.5"}, 2, []string{"-loss", "1.5"}},
		{"bad count", []string{"-only", "X8", "-mqo-n", "2,zero"}, 2, []string{"-mqo-n", "zero"}},
		{"help", []string{"-h"}, 0, []string{"Usage of experiments", "-only", "-mqo-n"}},
	}
	// The mode and artefact flags the experiment ids and -out replaced.
	for _, name := range []string{"mqo", "churn", "serve-load"} {
		cases = append(cases, refusal{"retired -" + name, []string{"-" + name}, 2, []string{"-" + name}})
	}
	for _, name := range []string{"scale-json", "mqo-json", "churn-json", "serve-load-json", "churn-nodes", "serve-nodes", "serve-clients"} {
		cases = append(cases, refusal{"retired -" + name, []string{"-" + name, "1"}, 2, []string{"-" + name}})
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			stdout, stderr, code := runCLI(tc.args...)
			if code != tc.code {
				t.Fatalf("%v: exit %d, want %d; stderr:\n%s", tc.args, code, tc.code, stderr)
			}
			for _, w := range tc.want {
				if !strings.Contains(stderr, w) {
					t.Errorf("%v: stderr %q does not mention %q", tc.args, stderr, w)
				}
			}
			if stdout != "" {
				t.Errorf("%v: refused, yet printed %q", tc.args, stdout)
			}
		})
	}
	if got, err := os.ReadFile(kept); err != nil || string(got) != "kept" {
		t.Fatalf("a refused -out touched its file: %q, %v", got, err)
	}
}

// -only selects an entry of bench.Suite and prints exactly its table.
func TestRunOnlyPrintsTheSuiteEntry(t *testing.T) {
	var e1a bench.Experiment
	for _, e := range bench.Suite {
		if e.ID == "E1a" {
			e1a = e
		}
	}
	tbl, _, err := e1a.Run(bench.Config{Nodes: 150, Seed: 42, MaxPacket: 48}, bench.Params{})
	if err != nil {
		t.Fatal(err)
	}
	want := "SENS-Join experiment suite — 150 nodes, seed 42, 48B packets\n\n" + fmt.Sprintln(tbl)
	got, stderr, code := runCLI("-only", "E1a", "-nodes", "150")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	if got != want {
		t.Fatalf("-only E1a -nodes 150 printed\n%s\nwant\n%s", got, want)
	}
}

// An on-demand experiment is selected like any other, reads its parameter
// flag and writes its JSON result where -out says.
func TestRunOutWritesTheResult(t *testing.T) {
	path := filepath.Join(t.TempDir(), "mqo.json")
	stdout, stderr, code := runCLI("-only", "X8", "-nodes", "400", "-mqo-n", "1,2", "-out", path)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	if !strings.HasPrefix(stdout, "== X8 ") || strings.Contains(stdout, "DIFFER") {
		t.Fatalf("X8 table:\n%s", stdout)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var res bench.MQOResult
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&res); err != nil {
		t.Fatalf("%s is not a bench.MQOResult: %v", path, err)
	}
	// Two overlap levels at each of the two query counts.
	if res.Nodes != 400 || len(res.Points) != 4 {
		t.Fatalf("result has nodes=%d and %d points, want 400 and 4", res.Nodes, len(res.Points))
	}
}
