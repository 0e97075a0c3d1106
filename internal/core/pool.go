package core

// RunnerPool hands out the runners of one deployment. A Runner executes
// one query at a time, so concurrent executions each lease one; a runner
// that comes back is reset and kept, and the next lease starts on warm
// storage — per-node slabs, kernel scratch, the event heap, the
// collector's columns — instead of growing all of it again. The daemon
// keeps one pool per deployment for its lifetime; the experiment suite
// keeps one for the length of a bench.All or bench.Run* call.
//
// A lessee may run queries, read anything, and flip the runner's
// switches (Member, Env, AutoAudit, metrics, tracing, fault injection).
// It must not write into what the runner shares with others — Dep,
// Catalog, the cached Environment and Tree — and must not use the runner
// after Put.
type RunnerPool struct {
	cfg  SetupConfig
	free chan *Runner
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

// Get leases a runner: an idle one if there is one, a new one otherwise
// (cheap, since the deployment comes from the shared cache). The two are
// indistinguishable to the caller.
func (p *RunnerPool) Get() (*Runner, error) {
	select {
	case r := <-p.free:
		return r, nil
	default:
		return NewRunner(p.cfg)
	}
}

// Put ends a lease. The runner is reset and kept for the next Get, or
// dropped when it cannot be made equal to a new one or the pool is full.
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
// it managed to. What an assignment undoes, it undoes: the simulated
// clock and every sequence counter go back to zero (so event times, tie
// order, message ids and with them Result.ResponseTime to the last bit
// repeat), Stats is cleared in place, Member, Env, AutoAudit, mid-round
// repair and the metrics wiring return to their defaults. The run
// scratch, the event heap's capacity and the delivery freelists stay; the
// network clears what fault injection armed — dead nodes, downed links,
// the loss models, reliable transport (netsim.Network.Reset). What it does
// not try to undo: with events still pending, churn attached, a rebuilt
// tree, or tracing still on it reports false and the runner must not be
// reused.
func (r *Runner) reset() bool {
	if r.Tree != r.tree0 || r.churn != nil || r.Trace != nil {
		return false
	}
	if !r.Sim.Reset() || !r.Net.Reset() {
		return false
	}
	r.Stats.Reset()
	r.Env, r.Member, r.AutoAudit, r.repair = r.env0, nil, false, false
	if r.reg != nil {
		r.EnableMetrics(nil)
	}
	return true
}
