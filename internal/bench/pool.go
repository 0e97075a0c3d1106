package bench

import "sync"

// Worker-pool scheduler for the experiment harness.
//
// Experiments — and the sweep cells inside them — are embarrassingly
// parallel: every job runs alone on a core.Runner it leases from the
// call's runner pools (Config.lease) and which starts the lease in the
// state of a new one; the expensive artifacts (deployment, environment,
// routing tree) come from core's immutable shared cache, and all
// simulation observables (packet counts, response times) are functions
// of the job's own deterministic simulation only. Fanout therefore runs
// jobs concurrently but returns results strictly in declaration order,
// so rendered tables are byte-identical regardless of worker count or
// GOMAXPROCS.

// Fanout runs jobs with at most workers goroutines and returns their
// results in declaration order. workers <= 1 runs the jobs sequentially
// on the calling goroutine. On failure the first error in declaration
// order is returned together with the results of the jobs declared
// before it (matching what a sequential early-exit loop would have
// produced); later jobs may or may not have run.
func Fanout[T any](workers int, jobs []func() (T, error)) ([]T, error) {
	out := make([]T, len(jobs))
	errs := make([]error, len(jobs))
	busy := fanoutBusy.Load() // nil when metrics are off; methods no-op
	if workers <= 1 {
		for i, job := range jobs {
			busy.Inc()
			out[i], errs[i] = job()
			busy.Dec()
			if errs[i] != nil {
				return out[:i], errs[i]
			}
		}
		return out, nil
	}
	sem := make(chan struct{}, workers)
	var wg sync.WaitGroup
	for i, job := range jobs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			busy.Inc()
			defer busy.Dec()
			out[i], errs[i] = job()
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return out[:i], err
		}
	}
	return out, nil
}

// cellJobs adapts a per-item function to a Fanout job list, preserving
// item order. Each cell reports start/completion to the harness
// instruments and the progress tracker under the short experiment id;
// with observability off both hooks are no-ops.
func cellJobs[I, R any](cfg Config, id string, items []I, run func(I) (R, error)) []func() (R, error) {
	cfg.Progress.Begin(id, len(items))
	out := make([]func() (R, error), len(items))
	for i, item := range items {
		out[i] = func() (R, error) {
			cfg.hm.cellsStarted.Inc()
			cfg.hm.cellsInflight.Inc()
			r, err := run(item)
			cfg.hm.cellsInflight.Dec()
			cfg.hm.cellsDone.Inc()
			cfg.Progress.CellDone(id, err == nil)
			return r, err
		}
	}
	return out
}
