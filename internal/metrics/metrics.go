// Package metrics is a stdlib-only, race-safe registry of counters,
// gauges and fixed-bucket histograms with label support. It is the live
// counterpart of the post-hoc stats.Collector: while an experiment sweep
// runs, instruments across the stack (netsim event loop, core protocol
// phases, routing, the bench harness) update atomically, and the
// registry exposes everything in the Prometheus text format (expose.go)
// so standard tooling can scrape a run in flight.
//
// The zero-cost rule mirrors package trace: every instrument method is a
// no-op on a nil receiver and a registry method on a nil *Registry
// returns a nil instrument, so instrumented hot paths need no guards and
// the untraced, metrics-off send/deliver path keeps its zero
// allocations per event (AllocsPerRun-guarded in netsim).
package metrics

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// L is one label pair attached to an instrument.
type L struct{ Key, Value string }

// Counter is a monotonically increasing int64 instrument.
type Counter struct {
	v atomic.Int64
}

// Inc adds one. Safe on nil.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n (negative deltas are ignored: counters only go up). Safe on
// nil.
func (c *Counter) Add(n int64) {
	if c != nil && n > 0 {
		c.v.Add(n)
	}
}

// Value returns the current count. Safe on nil.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an instrument that can go up and down.
type Gauge struct {
	v atomic.Int64
}

// Set stores v. Safe on nil.
func (g *Gauge) Set(v int64) {
	if g != nil {
		g.v.Store(v)
	}
}

// Add adds delta. Safe on nil.
func (g *Gauge) Add(delta int64) {
	if g != nil {
		g.v.Add(delta)
	}
}

// Inc adds one. Safe on nil.
func (g *Gauge) Inc() { g.Add(1) }

// Dec subtracts one. Safe on nil.
func (g *Gauge) Dec() { g.Add(-1) }

// Value returns the current value. Safe on nil.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram is a fixed-bucket cumulative histogram over float64
// observations, with an implicit +Inf bucket. Observations are
// lock-free: per-bucket atomic counts plus a CAS-updated sum.
type Histogram struct {
	bounds []float64 // ascending upper bounds, +Inf excluded
	counts []atomic.Int64
	inf    atomic.Int64
	count  atomic.Int64
	sumB   atomic.Uint64 // float64 bits
}

// Observe records v. Safe on nil.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	// Binary search for the first bound >= v (le semantics).
	i := sort.SearchFloat64s(h.bounds, v)
	if i < len(h.bounds) {
		h.counts[i].Add(1)
	} else {
		h.inf.Add(1)
	}
	h.count.Add(1)
	for {
		old := h.sumB.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumB.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of observations. Safe on nil.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observations. Safe on nil.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumB.Load())
}

// instrument is one registered time series.
type instrument struct {
	labels    []L
	labelsKey string // canonical encoding, map key and sort key
	counter   *Counter
	gauge     *Gauge
	hist      *Histogram
}

// family groups the instruments sharing one metric name.
type family struct {
	name   string
	help   string
	typ    string // "counter" | "gauge" | "histogram"
	bounds []float64
	insts  map[string]*instrument
}

// Registry holds instrument families. All methods are safe for
// concurrent use; registering the same (name, labels) again returns the
// existing instrument, so independent runners wire into shared series.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// New returns an empty registry.
func New() *Registry { return &Registry{families: map[string]*family{}} }

// labelsKey canonically encodes a sorted copy of labels.
func labelsKey(labels []L) (string, []L) {
	if len(labels) == 0 {
		return "", nil
	}
	ls := append([]L(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	var b strings.Builder
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", l.Key, l.Value)
	}
	return b.String(), ls
}

// lookup returns the instrument for (name, labels), creating family and
// instrument as needed; it panics when the name is reused with a
// different type (a programming error worth failing loudly on).
func (r *Registry) lookup(name, help, typ string, bounds []float64, labels []L) *instrument {
	if !validName(name) {
		panic(fmt.Sprintf("metrics: invalid metric name %q", name))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.families[name]
	if f == nil {
		f = &family{name: name, help: help, typ: typ, bounds: bounds, insts: map[string]*instrument{}}
		r.families[name] = f
	} else if f.typ != typ {
		panic(fmt.Sprintf("metrics: %s registered as %s, requested as %s", name, f.typ, typ))
	}
	key, sorted := labelsKey(labels)
	inst := f.insts[key]
	if inst == nil {
		inst = &instrument{labels: sorted, labelsKey: key}
		switch typ {
		case "counter":
			inst.counter = &Counter{}
		case "gauge":
			inst.gauge = &Gauge{}
		case "histogram":
			h := &Histogram{bounds: append([]float64(nil), f.bounds...)}
			h.counts = make([]atomic.Int64, len(h.bounds))
			inst.hist = h
		}
		f.insts[key] = inst
	}
	return inst
}

// Counter registers (or returns) the counter (name, labels). A nil
// registry returns a nil, no-op counter.
func (r *Registry) Counter(name, help string, labels ...L) *Counter {
	if r == nil {
		return nil
	}
	return r.lookup(name, help, "counter", nil, labels).counter
}

// Gauge registers (or returns) the gauge (name, labels). A nil registry
// returns a nil, no-op gauge.
func (r *Registry) Gauge(name, help string, labels ...L) *Gauge {
	if r == nil {
		return nil
	}
	return r.lookup(name, help, "gauge", nil, labels).gauge
}

// Histogram registers (or returns) the histogram (name, labels) with the
// given ascending finite bucket upper bounds (+Inf is implicit). The
// bounds of the first registration win; a nil registry returns a nil,
// no-op histogram.
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...L) *Histogram {
	if r == nil {
		return nil
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("metrics: histogram %s bounds not strictly ascending: %v", name, bounds))
		}
	}
	return r.lookup(name, help, "histogram", bounds, labels).hist
}

// validName checks the Prometheus metric-name grammar
// [a-zA-Z_:][a-zA-Z0-9_:]*.
func validName(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		alpha := (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_' || c == ':'
		if !alpha && (i == 0 || c < '0' || c > '9') {
			return false
		}
	}
	return true
}
