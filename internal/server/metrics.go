package server

import (
	"sync"

	"sensjoin/internal/core"
	"sensjoin/internal/metrics"
)

// serverMetrics holds the sensjoind_* instruments. All families are
// registered eagerly at server start so the exposition is complete
// before the first query arrives.
type serverMetrics struct {
	sessions      *metrics.Gauge
	sessionsTotal *metrics.Counter
	queries       *metrics.Counter
	rejected      *metrics.Counter
	cacheHits     *metrics.Counter
	cacheMisses   *metrics.Counter
	queueDepth    *metrics.Gauge
	activeQueries *metrics.Gauge
	querySeconds  *metrics.Histogram
	queryTimeouts *metrics.Counter
	sharedQueries *metrics.Counter
	sharedRounds  *metrics.Counter
	tracedQueries *metrics.Counter
	runnersBuilt  *metrics.Counter

	// phaseSeconds holds one sensjoind_query_phase_seconds instrument
	// per protocol phase label, created lazily for phases beyond the
	// eagerly registered standard set.
	reg     *metrics.Registry
	phaseMu sync.Mutex
	phases  map[string]*metrics.Histogram
}

func newServerMetrics(reg *metrics.Registry) *serverMetrics {
	if reg == nil {
		reg = metrics.New() // throwaway: keeps every hook unconditional
	}
	secs := []float64{0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5}
	m := &serverMetrics{
		reg:           reg,
		phases:        make(map[string]*metrics.Histogram),
		sessions:      reg.Gauge("sensjoind_sessions", "currently open client sessions"),
		sessionsTotal: reg.Counter("sensjoind_sessions_total", "client sessions accepted since start"),
		queries:       reg.Counter("sensjoind_queries_total", "queries admitted since start"),
		rejected:      reg.Counter("sensjoind_rejected_total", "queries rejected by admission control"),
		cacheHits:     reg.Counter("sensjoind_prepared_cache_hits_total", "prepared-query cache hits"),
		cacheMisses:   reg.Counter("sensjoind_prepared_cache_misses_total", "prepared-query cache misses (full prepare paid)"),
		queueDepth:    reg.Gauge("sensjoind_queue_depth", "admitted queries queued or executing"),
		activeQueries: reg.Gauge("sensjoind_active_queries", "queries currently executing (holding an execution slot)"),
		querySeconds:  reg.Histogram("sensjoind_query_seconds", "wall-clock seconds per epoch execution", secs),
		queryTimeouts: reg.Counter("sensjoind_query_timeouts_total", "epochs that exceeded the execution deadline"),
		sharedQueries: reg.Counter("sensjoind_shared_queries_total", "continuous queries routed into shared (grouped) execution"),
		sharedRounds:  reg.Counter("sensjoind_shared_rounds_total", "shared protocol rounds executed by query groups"),
		tracedQueries: reg.Counter("sensjoind_traced_queries_total", "queries whose span tree was sampled into the flight recorder"),
		runnersBuilt:  reg.Counter("sensjoind_runners_built_total", "runners a deployment's pool built because none was idle"),
	}
	// Pre-register the standard phase labels so the family is complete
	// on the exposition before the first sampled query.
	for _, ph := range []string{
		core.PhaseQueryDissem, core.PhaseJACollect, core.PhaseFilterDissem,
		core.PhaseFinalCollect, core.PhaseExternal,
	} {
		m.phaseSeconds(ph)
	}
	return m
}

// phaseBounds buckets simulated per-phase protocol latencies, which
// run from tens of milliseconds (a one-hop wave) to tens of seconds
// (a deep tree's slotted collection).
var phaseBounds = []float64{0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 25, 50}

// phaseSeconds returns (registering on first use) the
// sensjoind_query_phase_seconds instrument for one phase label.
func (m *serverMetrics) phaseSeconds(phase string) *metrics.Histogram {
	m.phaseMu.Lock()
	defer m.phaseMu.Unlock()
	h, ok := m.phases[phase]
	if !ok {
		h = m.reg.Histogram("sensjoind_query_phase_seconds",
			"simulated protocol seconds per phase of a sampled query",
			phaseBounds, metrics.L{Key: "phase", Value: phase})
		m.phases[phase] = h
	}
	return h
}

// observePhases feeds a sampled query's phase breakdown into the
// per-phase histograms.
func (m *serverMetrics) observePhases(phases []PhaseLatency) {
	for _, p := range phases {
		m.phaseSeconds(p.Phase).Observe(p.Seconds)
	}
}
