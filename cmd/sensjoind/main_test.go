package main

import (
	"bufio"
	"io"
	"net/http"
	"os"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"sensjoin/internal/metrics"
	"sensjoin/pkg/client"
)

// Every sensjoind_* family, the per-phase latency histogram and the
// traced-query counter included.
var daemonFamilies = []string{
	"sensjoind_sessions",
	"sensjoind_sessions_total",
	"sensjoind_queries_total",
	"sensjoind_rejected_total",
	"sensjoind_prepared_cache_hits_total",
	"sensjoind_prepared_cache_misses_total",
	"sensjoind_queue_depth",
	"sensjoind_active_queries",
	"sensjoind_query_seconds",
	"sensjoind_shared_queries_total",
	"sensjoind_shared_rounds_total",
	"sensjoind_traced_queries_total",
	"sensjoind_runners_built_total",
	"sensjoind_query_phase_seconds",
}

// The daemon's lifecycle: it serves concurrent sessions with every query
// span-sampled, exposes every family, keeps the traced query's span tree
// in its flight recorder, and drains on SIGTERM with exit status 0.
func TestDaemonServesAndDrains(t *testing.T) {
	stderr, w := io.Pipe()
	done := make(chan int, 1)
	go func() {
		code := run([]string{"-listen", "127.0.0.1:0", "-http", "127.0.0.1:0", "-nodes", "150", "-trace-sample", "1"}, io.Discard, w)
		w.Close()
		done <- code
	}()
	lines := scanLines(stderr)
	addr := strings.Fields(awaitLine(t, lines, "sensjoind: serving queries on "))[4]
	obs := strings.Fields(awaitLine(t, lines, "sensjoind: observability on "))[3]
	go func() {
		for range lines {
		}
	}()

	queries := []struct {
		src string
		o   client.Options
	}{
		{"SELECT A.temp, B.hum FROM Sensors A, Sensors B WHERE A.temp - B.temp > 5.0 ONCE", client.Options{TraceID: "ci-smoke-1"}},
		{"SELECT MIN(distance(A.x, A.y, B.x, B.y)) FROM Sensors A, Sensors B WHERE A.temp - B.temp > 6.0 ONCE", client.Options{}},
		{"SELECT A.temp FROM Sensors A, Sensors B WHERE A.temp = B.temp SAMPLE PERIOD 30", client.Options{Rounds: 2}},
	}
	var wg sync.WaitGroup
	for _, q := range queries {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if n, err := tables(addr, q.src, q.o); err != nil || n != max(q.o.Rounds, 1) {
				t.Errorf("%s: %d table(s), %v", q.src, n, err)
			}
		}()
	}
	wg.Wait()

	families, err := metrics.ValidateProm(strings.NewReader(get(t, obs+"metrics")))
	if err != nil {
		t.Fatalf("/metrics: %v", err)
	}
	for _, fam := range daemonFamilies {
		if _, ok := families[fam]; !ok {
			t.Errorf("/metrics lacks %s", fam)
		}
	}
	if list := get(t, obs+"debug/queries"); !strings.Contains(list, `"TraceID": "ci-smoke-1"`) {
		t.Errorf("/debug/queries does not list ci-smoke-1:\n%s", list)
	}
	if tree := get(t, obs+"debug/queries?trace=ci-smoke-1"); !strings.Contains(tree, `"ev"`) {
		t.Errorf("ci-smoke-1 has no span tree:\n%s", tree)
	}

	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if code := <-done; code != 0 {
		t.Fatalf("drained with exit status %d", code)
	}
}

// tables runs src in a session of its own and counts the tables it
// streams.
func tables(addr, src string, o client.Options) (int, error) {
	c, err := client.Dial(addr)
	if err != nil {
		return 0, err
	}
	defer c.Close()
	st, err := c.Stream(src, o)
	if err != nil {
		return 0, err
	}
	defer st.Close()
	for n := 0; ; n++ {
		if _, err := st.Next(); err != nil {
			if err == io.EOF {
				err = nil
			}
			return n, err
		}
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
