package core

import (
	"fmt"
	"math"
	"reflect"
	"sync"
	"testing"

	"sensjoin/internal/metrics"
	"sensjoin/internal/netsim"
	"sensjoin/internal/relation"
	"sensjoin/internal/topology"
	"sensjoin/internal/trace"
)

const (
	poolSrc   = "SELECT A.temp, B.temp FROM Sensors A, Sensors B WHERE A.temp - B.temp > 6 ONCE"
	poolOther = "SELECT A.hum, B.hum, A.temp FROM Sensors A, Sensors B WHERE A.hum - B.hum > 20 ONCE"
)

// observed is everything a run lets its caller see.
type observed struct {
	response   uint64 // Result.ResponseTime, bit for bit
	rows       []Row
	tx, steps  int64
	now        float64
	journalLen int
	journal    any
}

func observe(t *testing.T, r *Runner, p *Prepared, m Method) observed {
	t.Helper()
	rec := trace.New()
	res, err := r.RunPrepared(p, m, 0, Traced(rec))
	if err != nil {
		t.Fatal(err)
	}
	j := rec.Journal()
	return observed{
		response: math.Float64bits(res.ResponseTime), rows: res.Rows,
		tx: r.Stats.TotalTx(), steps: r.Sim.Steps(), now: r.Sim.Now(),
		journalLen: len(j.Events), journal: j.Events,
	}
}

// A query cannot tell a pooled runner that ran other queries before from
// a new one: the response time agrees to the last bit (it is a difference
// of clock readings, so it used to carry the runner's history in its low
// bits: 59.850000000000009 s after one earlier run, 59.849999999999966 s
// after five), and so do the rows, the packet totals, the event count and
// the whole journal, message ids included — also after the runner ran a
// round under 5% loss with reliable transport and a lossy link, a traced
// round and an audited one, and was left with a dead node and a downed
// link.
func TestPooledRunnerRepeatsAFreshOne(t *testing.T) {
	for _, cfg := range []SetupConfig{
		{Nodes: 300, Seed: 7},
		// Sharded: the region clocks and sequence counters rewind too.
		{Nodes: 300, Seed: 7, Shards: 4, Private: true, SetupWorkers: 1},
	} {
		for _, m := range []func() Method{
			func() Method { return NewSENSJoin() },
			func() Method { return External{} },
		} {
			pooledRepeatsFresh(t, cfg, m)
		}
	}
}

func pooledRepeatsFresh(t *testing.T, cfg SetupConfig, m func() Method) {
	t.Helper()
	fresh, err := NewRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	prep, err := fresh.Prepare(poolSrc)
	if err != nil {
		t.Fatal(err)
	}
	other, err := fresh.Prepare(poolOther)
	if err != nil {
		t.Fatal(err)
	}
	want := observe(t, fresh, prep, m())

	pool, err := NewRunnerPool(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	used, err := pool.Get()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		for _, mm := range []Method{External{}, NewSENSJoin()} {
			if _, err := used.RunPrepared(other, mm, float64(i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	used.Net.SetLinkLossRate(1, used.Dep.Neighbors[1][0], 0.5)
	for i, opts := range [][]RunOption{
		{WithReliable(netsim.ReliableConfig{}), WithLoss(0.05, 3)},
		{Traced(trace.New())},
		{Audited()},
	} {
		if _, err := used.RunPrepared(other, NewSENSJoin(), float64(5+i), opts...); err != nil {
			t.Fatal(err)
		}
	}
	used.Net.KillNode(5)
	used.Net.LinkDown(2, used.Dep.Neighbors[2][0])
	if used.Sim.Now() == 0 || used.Stats.TotalTx() == 0 || used.Net.Retx == 0 {
		t.Fatal("the warm-up left no history to reset")
	}
	pool.Put(used)
	again, err := pool.Get()
	if err != nil {
		t.Fatal(err)
	}
	if again != used {
		t.Fatal("a clean runner was not handed out again")
	}
	if again.Sim.Now() != 0 || again.Sim.Steps() != 0 || again.Stats.TotalTx() != 0 {
		t.Fatalf("reset left clock %g, steps %d, %d packets", again.Sim.Now(), again.Sim.Steps(), again.Stats.TotalTx())
	}
	got := observe(t, again, prep, m())
	name := m().Name()
	if got.response != want.response {
		t.Errorf("%s: ResponseTime %x on the pooled runner, %x on a new one", name, got.response, want.response)
	}
	if got.tx != want.tx || got.steps != want.steps || got.now != want.now {
		t.Errorf("%s: (packets, events, clock) = (%d, %d, %g), want (%d, %d, %g)",
			name, got.tx, got.steps, got.now, want.tx, want.steps, want.now)
	}
	if !rowsEqual(got.rows, want.rows) {
		t.Errorf("%s: rows differ", name)
	}
	if got.journalLen == 0 || !reflect.DeepEqual(got.journal, want.journal) {
		t.Errorf("%s: journals differ (%d vs %d events)", name, got.journalLen, want.journalLen)
	}
}

// What an assignment undoes, reset undoes.
func TestResetRestoresTheSwitches(t *testing.T) {
	pool, err := NewRunnerPool(SetupConfig{Nodes: 150, Seed: 7}, 1)
	if err != nil {
		t.Fatal(err)
	}
	r, err := pool.Get()
	if err != nil {
		t.Fatal(err)
	}
	env := r.Env
	r.Member = func(topology.NodeID, string) bool { return false }
	r.Env = nil
	r.EnableMetrics(metrics.New())
	pool.Put(r)
	again, err := pool.Get()
	if err != nil {
		t.Fatal(err)
	}
	if again != r {
		t.Fatal("a runner with only switches flipped was dropped")
	}
	if r.Member != nil || r.Env != env || r.Metrics != nil || r.reg != nil {
		t.Errorf("reset left Member set: %t, Env %p (want %p), Metrics %p",
			r.Member != nil, r.Env, env, r.Metrics)
	}
}

// A runner that cannot be made equal to a new one is never handed out
// again: churn, pending events and a rebuilt tree leave marks that reset
// does not undo.
func TestPoolDropsRunnersItCannotReset(t *testing.T) {
	cfg := SetupConfig{Nodes: 150, Seed: 7}
	for _, c := range []struct {
		name  string
		dirty func(r *Runner)
	}{
		{"churn", func(r *Runner) { r.AttachChurn(netsim.ChurnConfig{Seed: 1, Rate: 0.01}) }},
		{"pending events", func(r *Runner) { r.Sim.Schedule(r.Sim.Now()+1, func() {}) }},
		{"rebuilt tree", func(r *Runner) { r.RebuildTree() }},
	} {
		pool, err := NewRunnerPool(cfg, 2)
		if err != nil {
			t.Fatal(err)
		}
		r, err := pool.Get()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := r.Run(poolSrc, NewSENSJoin(), 0); err != nil {
			t.Fatal(err)
		}
		c.dirty(r)
		pool.Put(r)
		for i := 0; i < 3; i++ {
			next, err := pool.Get()
			if err != nil {
				t.Fatal(err)
			}
			if next == r {
				t.Errorf("%s: the runner was handed out again", c.name)
			}
		}
	}
}

// Runners of one pool are leased from many goroutines at once; each
// lease runs alone on its runner and sees the same result. Run under
// -race.
func TestPoolConcurrentLeases(t *testing.T) {
	cfg := SetupConfig{Nodes: 150, Seed: 7}
	pool, err := NewRunnerPool(cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	prep, err := Prepare(mustCatalog(t, pool), poolSrc)
	if err != nil {
		t.Fatal(err)
	}
	const workers, leases = 4, 6
	got := make([][]uint64, workers)
	done := make(chan struct{})
	for w := 0; w < workers; w++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for i := 0; i < leases; i++ {
				r, err := pool.Get()
				if err != nil {
					t.Error(err)
					return
				}
				res, err := r.RunPrepared(prep, NewSENSJoin(), 0)
				if err != nil {
					t.Error(err)
					return
				}
				got[w] = append(got[w], math.Float64bits(res.ResponseTime), uint64(r.Stats.TotalTx()), uint64(len(res.Rows)))
				pool.Put(r)
			}
		}()
	}
	for w := 0; w < workers; w++ {
		<-done
	}
	for w := range got {
		for i := 0; i+3 <= len(got[w]); i += 3 {
			if !reflect.DeepEqual(got[w][i:i+3], got[0][:3]) {
				t.Fatalf("worker %d lease %d saw %v, want %v", w, i/3, got[w][i:i+3], got[0][:3])
			}
		}
	}
}

func mustCatalog(t *testing.T, pool *RunnerPool) relation.Catalog {
	t.Helper()
	r, err := pool.Get()
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Put(r)
	return r.Catalog
}

// One Prepared — and with it one plan shape: grid, codec, compiled local
// predicates — serves executions on every runner of a pool at once, lone
// rounds and shared QueryGroup rounds alike, and each table is the one a
// fresh Prepare computes alone on a fresh runner. Run under -race.
func TestPoolSharesPreparedPlanShape(t *testing.T) {
	const (
		lone  = "SELECT A.temp, B.temp FROM Sensors A, Sensors B WHERE A.temp - B.temp > 6 AND A.hum < 60 ONCE"
		buddy = "SELECT A.temp, B.temp FROM Sensors A, Sensors B WHERE A.temp - B.temp > 5 AND A.hum < 60 ONCE"
	)
	cfg := SetupConfig{Nodes: 150, Seed: 7}
	runs := []struct {
		name string
		run  func(r *Runner, preps []*Prepared) ([]*Result, error)
	}{
		{"sens-join", func(r *Runner, preps []*Prepared) ([]*Result, error) {
			res, err := r.RunPrepared(preps[0], NewSENSJoin(), 0)
			return []*Result{res}, err
		}},
		{"external-join", func(r *Runner, preps []*Prepared) ([]*Result, error) {
			res, err := r.RunPrepared(preps[0], External{}, 0)
			return []*Result{res}, err
		}},
		{"group", func(r *Runner, preps []*Prepared) ([]*Result, error) {
			g := NewQueryGroup(Options{})
			for _, p := range preps {
				if _, err := g.Add(p); err != nil {
					return nil, err
				}
			}
			if g.Clusters() != 1 {
				return nil, fmt.Errorf("%d clusters, want the two queries to share one round", g.Clusters())
			}
			return g.RunRound(r, 0)
		}},
	}
	tables := func(results []*Result) []string {
		out := make([]string, len(results))
		for i, res := range results {
			out[i] = fmt.Sprintf("%v response=%x", res.Table().Digest(), math.Float64bits(res.ResponseTime))
			res.Release()
		}
		return out
	}

	want := make([][]string, len(runs))
	for i, c := range runs {
		r, err := NewRunner(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var preps []*Prepared
		for _, src := range []string{lone, buddy} {
			p, err := r.Prepare(src)
			if err != nil {
				t.Fatal(err)
			}
			preps = append(preps, p)
		}
		results, err := c.run(r, preps)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		want[i] = tables(results)
	}

	pool, err := NewRunnerPool(cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	var shared []*Prepared
	for _, src := range []string{lone, buddy} {
		p, err := Prepare(mustCatalog(t, pool), src)
		if err != nil {
			t.Fatal(err)
		}
		shared = append(shared, p)
	}
	const workers, leases = 4, 6
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < leases; i++ {
				k := (w + i) % len(runs)
				r, err := pool.Get()
				if err != nil {
					t.Error(err)
					return
				}
				results, err := runs[k].run(r, shared)
				pool.Put(r)
				if err != nil {
					t.Errorf("worker %d %s: %v", w, runs[k].name, err)
					return
				}
				if got := tables(results); !reflect.DeepEqual(got, want[k]) {
					t.Errorf("worker %d lease %d %s: the shared Prepared's tables differ from a fresh one's", w, i, runs[k].name)
				}
			}
		}(w)
	}
	wg.Wait()
}
