package metrics

import (
	"strings"
	"sync"
	"testing"
)

func TestNilSafety(t *testing.T) {
	var r *Registry
	c := r.Counter("x_total", "")
	g := r.Gauge("x", "")
	h := r.Histogram("x_seconds", "", []float64{1})
	c.Inc()
	c.Add(5)
	g.Set(3)
	g.Inc()
	g.Dec()
	h.Observe(0.5)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 {
		t.Fatal("nil instruments must stay zero")
	}
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil || sb.Len() != 0 {
		t.Fatalf("nil registry exposition: %q, %v", sb.String(), err)
	}
}

func TestCounterGaugeBasics(t *testing.T) {
	r := New()
	c := r.Counter("pkts_total", "packets", L{"phase", "a"})
	c.Inc()
	c.Add(4)
	c.Add(-10) // ignored: counters only go up
	if c.Value() != 5 {
		t.Fatalf("counter = %d, want 5", c.Value())
	}
	// Same (name, labels) returns the same instrument.
	if c2 := r.Counter("pkts_total", "packets", L{"phase", "a"}); c2 != c {
		t.Fatal("re-registration must return the existing counter")
	}
	// Different labels are a different series.
	if c3 := r.Counter("pkts_total", "packets", L{"phase", "b"}); c3 == c {
		t.Fatal("distinct labels must be a distinct series")
	}
	g := r.Gauge("depth", "")
	g.Set(7)
	g.Dec()
	if g.Value() != 6 {
		t.Fatalf("gauge = %d, want 6", g.Value())
	}
}

func TestLabelOrderCanonical(t *testing.T) {
	r := New()
	a := r.Counter("x_total", "", L{"a", "1"}, L{"b", "2"})
	b := r.Counter("x_total", "", L{"b", "2"}, L{"a", "1"})
	if a != b {
		t.Fatal("label order must not distinguish series")
	}
}

func TestTypeMismatchPanics(t *testing.T) {
	r := New()
	r.Counter("x_total", "")
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on counter re-registered as gauge")
		}
	}()
	r.Gauge("x_total", "")
}

func TestHistogramEdgeCases(t *testing.T) {
	r := New()
	h := r.Histogram("d_seconds", "", []float64{1, 2, 4})
	if h.Count() != 0 || h.Sum() != 0 {
		t.Fatal("a new histogram must be empty")
	}

	// A sample lands in the bucket whose bounds enclose it.
	h.Observe(1.5)
	if h.counts[1].Load() != 1 || h.Count() != 1 {
		t.Fatal("1.5 must be counted once, in (1,2]")
	}

	// Bucket-boundary observations use le semantics: 2.0 falls in the
	// (1,2] bucket, not (2,4].
	h.Observe(2)
	if h.counts[1].Load() != 2 || h.counts[2].Load() != 0 {
		t.Fatal("boundary observation 2 must fall in (1,2]")
	}

	// Overflow: values above the last bound go to the +Inf bucket.
	h3 := r.Histogram("f_seconds", "", []float64{1, 2, 4})
	h3.Observe(100)
	if h3.inf.Load() != 1 {
		t.Fatal("100 must be counted in the +Inf bucket")
	}
	if h3.Count() != 1 || h3.Sum() != 100 {
		t.Fatalf("overflow count/sum = %d/%g", h3.Count(), h3.Sum())
	}
}

func TestHistogramBadBoundsPanics(t *testing.T) {
	r := New()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on non-ascending bounds")
		}
	}()
	r.Histogram("bad_seconds", "", []float64{2, 1})
}

// TestConcurrentAccess hammers registration, increments and exposition
// from many goroutines — the experiment fan-out shape. Run under -race.
func TestConcurrentAccess(t *testing.T) {
	r := New()
	const workers = 16
	const perWorker = 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				// Every worker re-registers the same series each round,
				// as independent sweep-cell runners do.
				c := r.Counter("events_total", "", L{"phase", "collect"})
				c.Inc()
				g := r.Gauge("inflight", "")
				g.Inc()
				g.Dec()
				h := r.Histogram("lat_seconds", "", []float64{0.001, 0.01, 0.1, 1})
				h.Observe(float64(i%7) * 0.02)
				if i%100 == 0 {
					var sb strings.Builder
					if err := r.WritePrometheus(&sb); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if got := r.Counter("events_total", "", L{"phase", "collect"}).Value(); got != workers*perWorker {
		t.Fatalf("concurrent counter = %d, want %d", got, workers*perWorker)
	}
	if got := r.Histogram("lat_seconds", "", nil).Count(); got != workers*perWorker {
		t.Fatalf("concurrent histogram count = %d, want %d", got, workers*perWorker)
	}
}

// The exposition must satisfy the repo's own validator and be
// deterministic for a fixed registry state.
func TestPrometheusExpositionValidates(t *testing.T) {
	r := New()
	r.Counter("sensjoin_tx_total", "transmitted packets", L{"phase", "ja-collect"}).Add(12)
	r.Counter("sensjoin_tx_total", "transmitted packets", L{"phase", "final-collect"}).Add(3)
	r.Gauge("sensjoin_queue_depth", "event queue depth").Set(42)
	h := r.Histogram("sensjoin_phase_seconds", "phase durations", []float64{0.1, 1, 10}, L{"phase", "ja-collect"})
	h.Observe(0.5)
	h.Observe(20)
	r.Counter("odd_label_total", "quote \" and backslash \\", L{"q", `va"l\ue`}).Inc()

	var a, b strings.Builder
	if err := r.WritePrometheus(&a); err != nil {
		t.Fatal(err)
	}
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatal("exposition not deterministic")
	}
	types, err := ValidateProm(strings.NewReader(a.String()))
	if err != nil {
		t.Fatalf("exposition does not validate: %v\n%s", err, a.String())
	}
	want := map[string]string{
		"sensjoin_tx_total":      "counter",
		"sensjoin_queue_depth":   "gauge",
		"sensjoin_phase_seconds": "histogram",
		"odd_label_total":        "counter",
	}
	for name, typ := range want {
		if types[name] != typ {
			t.Fatalf("family %s parsed as %q, want %q", name, types[name], typ)
		}
	}
	// The cumulative +Inf bucket must equal the count.
	if !strings.Contains(a.String(), `sensjoin_phase_seconds_bucket{phase="ja-collect",le="+Inf"} 2`) {
		t.Fatalf("missing +Inf bucket:\n%s", a.String())
	}
}

func TestValidatorRejectsGarbage(t *testing.T) {
	bad := []string{
		"no_type_decl 1\n",
		"# TYPE x counter\nx notanumber\n",
		"# TYPE x counter\nx{unterminated=\"v 1\n",
		"# TYPE x histogram\nx 1\n",
		"",
	}
	for _, s := range bad {
		if _, err := ValidateProm(strings.NewReader(s)); err == nil {
			t.Fatalf("validator accepted %q", s)
		}
	}
}

func TestSnapshot(t *testing.T) {
	r := New()
	r.Counter("c_total", "").Add(2)
	r.Gauge("g", "", L{"k", "v"}).Set(9)
	r.Histogram("h_seconds", "", []float64{1}).Observe(0.5)
	snap := r.Snapshot()
	if snap["c_total"] != int64(2) {
		t.Fatalf("snapshot c_total = %v", snap["c_total"])
	}
	if snap[`g{k="v"}`] != int64(9) {
		t.Fatalf("snapshot gauge = %v (keys %v)", snap[`g{k="v"}`], snap)
	}
	if snap["h_seconds_count"] != int64(1) {
		t.Fatalf("snapshot histogram count = %v", snap["h_seconds_count"])
	}
}
