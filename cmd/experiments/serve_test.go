package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"sensjoin/internal/metrics"
)

// The families an audited E1a,X6 run registers: the simulator, the
// protocol phases, the tree, the sweep, per-node energy and shared
// execution.
var suiteFamilies = []string{
	"sensjoin_netsim_events_total",
	"sensjoin_netsim_tx_packets_total",
	"sensjoin_core_runs_total",
	"sensjoin_core_phase_transitions_total",
	"sensjoin_core_phase_seconds",
	"sensjoin_routing_tree_depth",
	"sensjoin_bench_cells_done_total",
	"sensjoin_bench_node_energy_joules",
	"sensjoin_mqo_groups",
	"sensjoin_mqo_merged_broadcasts_total",
	"sensjoin_mqo_dedup_tuples_total",
	"sensjoin_mqo_bitmap_bytes_total",
}

// A served, held run exposes a valid exposition with every suite family,
// its progress, expvar's own variables (the registry is /metrics' alone)
// and a CPU profile, exits on /quit, and prints the same tables as a
// plain run, byte for byte.
func TestServeKeepsTheTables(t *testing.T) {
	args := []string{"-nodes", "400", "-only", "E1a,X6", "-audit"}
	plain, msg, code := runCLI(args...)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, msg)
	}

	var served bytes.Buffer
	stderr, w := io.Pipe()
	done := make(chan int, 1)
	go func() {
		code := run(append(args, "-serve", "127.0.0.1:0", "-progress", "-hold"), &served, w)
		w.Close()
		done <- code
	}()
	lines := scanLines(stderr)
	base := strings.Fields(awaitLine(t, lines, "serving observability on "))[3]
	// The prompt comes once the suite has finished: every family is
	// registered and every cell counted.
	awaitLine(t, lines, "holding: ")
	go func() {
		for range lines {
		}
	}()

	families, err := metrics.ValidateProm(strings.NewReader(get(t, base+"metrics")))
	if err != nil {
		t.Fatalf("/metrics: %v", err)
	}
	for _, fam := range suiteFamilies {
		if _, ok := families[fam]; !ok {
			t.Errorf("/metrics lacks %s", fam)
		}
	}
	if p := get(t, base+"progress"); !strings.Contains(p, `"id": "E1a"`) {
		t.Errorf("/progress does not list E1a:\n%s", p)
	}
	var vars map[string]json.RawMessage
	if err := json.Unmarshal([]byte(get(t, base+"debug/vars")), &vars); err != nil {
		t.Fatalf("/debug/vars: %v", err)
	}
	if _, ok := vars["memstats"]; !ok {
		t.Error("/debug/vars lacks memstats")
	}
	if _, ok := vars["sensjoin"]; ok {
		t.Error("/debug/vars mirrors the registry, which /metrics serves")
	}
	if idx := get(t, base); !strings.HasPrefix(idx, "sensjoin experiments: ") {
		t.Errorf("/ answers %q, not the suite's index", idx)
	}
	if len(get(t, base+"debug/pprof/profile?seconds=1")) == 0 {
		t.Error("empty CPU profile")
	}
	get(t, base+"quit")
	if code := <-done; code != 0 {
		t.Fatalf("the served run exited %d", code)
	}
	if served.String() != plain {
		t.Fatalf("served tables differ from the plain run's:\n%s\nwant\n%s", served.String(), plain)
	}
}

// scanLines sends r's lines on the returned channel, closed at EOF.
func scanLines(r io.Reader) <-chan string {
	lines := make(chan string)
	go func() {
		sc := bufio.NewScanner(r)
		for sc.Scan() {
			lines <- sc.Text()
		}
		close(lines)
		io.Copy(io.Discard, r)
	}()
	return lines
}

// awaitLine returns the next line that starts with prefix; it fails the
// test if none comes within a minute.
func awaitLine(t *testing.T, lines <-chan string, prefix string) string {
	t.Helper()
	timeout := time.After(time.Minute)
	for {
		select {
		case l, ok := <-lines:
			if !ok {
				t.Fatalf("stderr ended without a line starting %q", prefix)
			}
			if strings.HasPrefix(l, prefix) {
				return l
			}
		case <-timeout:
			t.Fatalf("no line starting %q on stderr within a minute", prefix)
		}
	}
}

// get fetches url and returns the body of its 200 answer.
func get(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s\n%s", url, resp.Status, body)
	}
	return string(body)
}
