package main

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"sensjoin/internal/metrics"
)

// registering serves a registry that gains one family per fetch, the
// way a program registers its instruments as it reaches them, and
// counts the fetches.
func registering(t *testing.T, families ...string) (*httptest.Server, *atomic.Int64) {
	t.Helper()
	var fetches atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		n := fetches.Add(1)
		reg := metrics.New()
		for _, fam := range families[:min(int(n), len(families))] {
			reg.Counter(fam, "a family").Inc()
		}
		reg.WritePrometheus(w)
	}))
	t.Cleanup(srv.Close)
	return srv, &fetches
}

func runCheck(args ...string) (code int, stdout, stderr string) {
	var out, errOut bytes.Buffer
	code = run(args, &out, &errOut)
	return code, out.String(), errOut.String()
}

// -require keeps fetching until every required family is present, and
// fails with the missing list once the retry budget is spent.
func TestRequireWaitsForFamilies(t *testing.T) {
	srv, fetches := registering(t, "a_total", "b_total", "c_total")
	code, stdout, stderr := runCheck("-retries", "5", "-interval", "1ms", "-require", "a_total,c_total", srv.URL)
	if code != 0 || fetches.Load() != 3 {
		t.Fatalf("exit %d after %d fetches (%s%s), want 0 after the third, the first with c_total", code, fetches.Load(), stdout, stderr)
	}

	srv, fetches = registering(t, "a_total", "b_total", "c_total")
	code, _, stderr = runCheck("-retries", "2", "-interval", "1ms", "-require", "a_total,c_total", srv.URL)
	if code != 1 || fetches.Load() != 2 || !strings.Contains(stderr, "missing required families after 2 attempts: c_total") {
		t.Fatalf("exit %d after %d fetches, stderr %q; want 1 after 2 naming c_total", code, fetches.Load(), stderr)
	}
}

// An exposition that does not validate fails at once: no retry hides it.
func TestInvalidExpositionFailsAtOnce(t *testing.T) {
	var fetches atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		fetches.Add(1)
		w.Write([]byte("not an exposition{\n"))
	}))
	defer srv.Close()
	code, _, stderr := runCheck("-retries", "5", "-interval", "1ms", "-require", "a_total", srv.URL)
	if code != 1 || fetches.Load() != 1 || !strings.Contains(stderr, "invalid exposition") {
		t.Fatalf("exit %d after %d fetches, stderr %q; want 1 after one fetch", code, fetches.Load(), stderr)
	}
}

// -raw needs only an HTTP 200, retried past failures, and the substring.
func TestRaw(t *testing.T) {
	var fetches atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		if fetches.Add(1) == 1 {
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		w.Write([]byte(`{"id": "E1a"}`))
	}))
	defer srv.Close()
	if code, _, stderr := runCheck("-raw", "-contains", `"id": "E1a"`, "-interval", "1ms", srv.URL); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	if code, _, stderr := runCheck("-raw", "-contains", "E9", "-interval", "1ms", srv.URL); code != 1 || !strings.Contains(stderr, `does not contain "E9"`) {
		t.Fatalf("exit %d, stderr %q; want 1 naming the substring", code, stderr)
	}
	if code, _, _ := runCheck(); code != 2 {
		t.Fatalf("no URL: exit %d, want 2", code)
	}
}
