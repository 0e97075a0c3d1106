package core

import "sensjoin/internal/metrics"

// RunnerPool hands out the runners of one deployment. A Runner executes
// one query at a time, so concurrent executions each lease one; a runner
// that comes back is reset and kept, and the next lease starts on warm
// storage — per-node slabs, kernel scratch, the event heap, the
// collector's columns — instead of growing all of it again. The daemon
// keeps one pool per deployment for its lifetime; the experiment suite
// keeps one for the length of a bench.All or bench.Run* call.
//
// A lessee may run queries with any RunOption, read anything, set Member
// and Env, enable metrics, break nodes and links and heal the tree. It
// must not write into what the runner shares with others — Dep, Catalog,
// the cached Environment and Tree — and must not use the runner after
// Put.
type RunnerPool struct {
	cfg  SetupConfig
	free chan *Runner
	// built counts the runners Get built because none was idle; nil
	// counts nothing (CountBuilt).
	built *metrics.Counter
}

// NewRunnerPool returns a pool that keeps at most capacity idle runners
// of cfg. It builds the first one right away, which validates cfg and
// warms the shared deployment cache (cache.go).
func NewRunnerPool(cfg SetupConfig, capacity int) (*RunnerPool, error) {
	r, err := NewRunner(cfg)
	if err != nil {
		return nil, err
	}
	p := &RunnerPool{cfg: cfg, free: make(chan *Runner, max(capacity, 1))}
	p.free <- r
	return p, nil
}

// CountBuilt makes c count the runners Get builds because none is idle,
// so runner churn — a lease that starts on cold storage — shows without
// a profiler. Call it before the pool is shared.
func (p *RunnerPool) CountBuilt(c *metrics.Counter) { p.built = c }

// Get leases a runner: an idle one if there is one, a new one otherwise
// (cheap, since the deployment comes from the shared cache, but its
// storage starts empty). The two are indistinguishable to the caller.
func (p *RunnerPool) Get() (*Runner, error) {
	select {
	case r := <-p.free:
		return r, nil
	default:
		p.built.Inc()
		return NewRunner(p.cfg)
	}
}

// Put ends a lease. The runner is reset and kept for the next Get, or
// dropped when it cannot be made equal to a new one (events are still
// pending) or the pool is full.
// A runner that may still be executing (an abandoned, timed-out run) must
// not be put back at all.
func (p *RunnerPool) Put(r *Runner) {
	if !r.reset() {
		return
	}
	select {
	case p.free <- r:
	default:
	}
}

// reset makes an idle runner indistinguishable from the one
// NewRunnerFromSetup returned, keeping its storage, and reports whether
// it managed to. The simulated clock and every sequence counter go back
// to zero (so event times, tie order, message ids and with them
// Result.ResponseTime to the last bit repeat), Stats is cleared in place,
// Member, Env and the metrics wiring return to their defaults, the
// network forgets every fault (netsim.Network.Reset) and the routing tree
// the runner was built with comes back, since a tree healed around those
// faults (mid-round repair, RebuildTree) outlives them no more. An
// execution's transport, loss, journal and churn wiring were disarmed
// when it ended. With events still pending it reports false and the
// runner must not be reused.
func (r *Runner) reset() bool {
	if !r.Sim.Reset() {
		return false
	}
	r.Net.Reset()
	r.Stats.Reset()
	r.setTree(r.tree0)
	r.Env, r.Member = r.env0, nil
	if r.reg != nil {
		r.EnableMetrics(nil)
	}
	return true
}
