package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sensjoin/internal/metrics"
)

// q1 is the paper's Q1.
const q1 = "SELECT MIN(distance(A.x, A.y, B.x, B.y)) FROM Sensors A, Sensors B WHERE A.temp - B.temp > 10.0 ONCE"

// runCLI is one invocation of the binary's run with captured streams.
func runCLI(t *testing.T, args ...string) (stdout, stderr string) {
	t.Helper()
	var out, errOut bytes.Buffer
	if code := run(args, &out, &errOut); code != 0 {
		t.Fatalf("%v: exit %d: %s", args, code, errOut.String())
	}
	return out.String(), errOut.String()
}

func TestCompareReportsSavings(t *testing.T) {
	stdout, _ := runCLI(t, "-nodes", "200", "-compare", q1)
	if !strings.Contains(stdout, "\nexternal join: ") || !strings.Contains(stdout, "-> savings ") {
		t.Fatalf("no savings line:\n%s", stdout)
	}
}

func TestAuditIsClean(t *testing.T) {
	stdout, _ := runCLI(t, "-nodes", "200", "-audit", q1)
	if !strings.Contains(stdout, "audit: conservation, reconciliation, slot order, filter soundness — clean\n") {
		t.Fatalf("no clean audit line:\n%s", stdout)
	}
}

// -trace writes the journal and a Chrome trace beside it.
func TestTraceWritesBothJournals(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.jsonl")
	stdout, _ := runCLI(t, "-nodes", "200", "-trace", path, q1)
	for _, f := range []string{path, path + ".chrome.json"} {
		if st, err := os.Stat(f); err != nil || st.Size() == 0 {
			t.Errorf("%s: %v", f, err)
		}
	}
	if !strings.Contains(stdout, "journal -> "+path) {
		t.Errorf("stdout does not name the journal:\n%s", stdout)
	}
}

// -metrics - writes a valid exposition to stderr, and nothing else.
func TestMetricsToStderr(t *testing.T) {
	_, stderr := runCLI(t, "-nodes", "200", "-metrics", "-", q1)
	families, err := metrics.ValidateProm(strings.NewReader(stderr))
	if err != nil {
		t.Fatal(err)
	}
	if len(families) == 0 {
		t.Fatal("empty exposition")
	}
}

func TestExplainPrintsAPlan(t *testing.T) {
	stdout, _ := runCLI(t, "-nodes", "200", "-explain", q1)
	if !strings.Contains(stdout, "\nquery: SELECT MIN(distance(A.x, A.y, B.x, B.y))") || strings.Contains(stdout, "result:") {
		t.Fatalf("not a plan:\n%s", stdout)
	}
}

// Usage errors exit 2 before a deployment is built.
func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-method", "bogus", q1},
		{"-nodes", "200"},
		{"-no-such-flag", q1},
	} {
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code != 2 || out.Len() != 0 || errOut.Len() == 0 {
			t.Errorf("%v: exit %d, stdout %q, stderr %q", args, code, out.String(), errOut.String())
		}
	}
}
