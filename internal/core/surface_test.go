package core

import (
	"reflect"
	"slices"
	"testing"

	"sensjoin/internal/metrics"
	"sensjoin/internal/netsim"
	"sensjoin/internal/topology"
	"sensjoin/internal/trace"
)

// entryMethods lists the exported methods of typ (a pointer type) that
// start, bind or analyse a query: anything that takes or returns one of
// the marker types.
func entryMethods(typ reflect.Type, markers ...reflect.Type) []string {
	var out []string
	for i := 0; i < typ.NumMethod(); i++ {
		m := typ.Method(i)
		hit := false
		for k := 1; k < m.Type.NumIn(); k++ { // 0 is the receiver
			hit = hit || slices.Contains(markers, m.Type.In(k))
		}
		for k := 0; k < m.Type.NumOut(); k++ {
			hit = hit || slices.Contains(markers, m.Type.Out(k))
		}
		if hit {
			out = append(out, m.Name)
		}
	}
	return out // reflect lists methods sorted by name
}

// The sequencing "analyse, bind, count, arm, audit, execute, re-execute,
// disarm" exists once because a Runner has exactly four ways in and a
// QueryGroup two. Another way in is another copy of that sequence to keep
// in step: add a RunOption instead. RunOption is also the one way to say
// how an execution runs — its transport, loss, journal and audit — so the
// Runner has no switch or field that says it between executions.
func TestRunnerQuerySurface(t *testing.T) {
	var (
		method   = reflect.TypeOf((*Method)(nil)).Elem()
		prepared = reflect.TypeOf((*Prepared)(nil))
		exec     = reflect.TypeOf((*Exec)(nil))
		result   = reflect.TypeOf((*Result)(nil))
		results  = reflect.TypeOf([]*Result(nil))
		runner   = reflect.TypeOf((*Runner)(nil))
	)
	got := entryMethods(runner, method, prepared, exec, result, results)
	if want := []string{"Exec", "Prepare", "Run", "RunPrepared"}; !slices.Equal(got, want) {
		t.Errorf("Runner query entry points = %v, want %v", got, want)
	}
	got = entryMethods(reflect.TypeOf((*QueryGroup)(nil)), runner, prepared, result, results)
	if want := []string{"Add", "RunRound"}; !slices.Equal(got, want) {
		t.Errorf("QueryGroup round entry points = %v, want %v", got, want)
	}
	for _, name := range []string{"EnableTrace", "DisableTrace", "EnableReliableTransport"} {
		if _, ok := runner.MethodByName(name); ok {
			t.Errorf("Runner has a %s method: an execution's journal and transport are its RunOptions", name)
		}
	}
	for _, name := range []string{"Trace", "AutoAudit"} {
		if _, ok := runner.Elem().FieldByName(name); ok {
			t.Errorf("Runner has a %s field: an execution's journal and audit are its RunOptions", name)
		}
	}
}

// Every execution counts exactly once in sensjoin_core_runs_total,
// whichever way it was started. A shared round counts once per cluster:
// a cluster's members are served by one protocol execution.
func TestEveryExecutionCountsOnce(t *testing.T) {
	r := testRunner(t, 100, 46)
	r.EnableMetrics(metrics.New())
	src, m := qBand(0.4), NewSENSJoin()
	p, err := r.Prepare(src)
	if err != nil {
		t.Fatal(err)
	}
	expect := func(what string, want int64) {
		t.Helper()
		if got := r.Metrics.Runs.Value(); got != want {
			t.Fatalf("after %s: runs_total = %d, want %d", what, got, want)
		}
	}
	must := func(res *Result, err error) *Result {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	must(r.Run(src, m, 0))
	expect("Run", 1)
	must(r.RunPrepared(p, m, 0))
	expect("RunPrepared", 2)
	must(r.Run(src, m, 0, Audited()))
	expect("audited Run", 3)
	must(r.RunPrepared(p, m, 0, Audited()))
	expect("audited RunPrepared", 4)
	must(r.Run(src, m, 0, Traced(trace.New()), WithReliable(netsim.ReliableConfig{}), WithLoss(0.05, 1)))
	expect("traced, reliable, lossy Run", 5)

	g := NewQueryGroup(Options{})
	for _, s := range []string{qTempBand(2), qTempBand(3), qBand(0.4)} {
		mustAdd(t, g, s)
	}
	if g.Clusters() != 2 {
		t.Fatalf("Clusters = %d, want 2", g.Clusters())
	}
	if _, err := g.RunRound(r, 0); err != nil {
		t.Fatal(err)
	}
	expect("shared round of 2 clusters", 7)

	// Each recovery attempt is an execution: kill a depth-1 relay so the
	// first attempt comes back incomplete.
	for id := 1; id < r.Dep.N(); id++ {
		if r.Tree.Depth[id] == 1 {
			r.Net.KillNode(topology.NodeID(id))
			break
		}
	}
	res := must(r.RunPrepared(p, m, 0, WithRecovery(3)))
	if res.Attempts < 2 {
		t.Skipf("dead relay left the first attempt complete (attempts %d)", res.Attempts)
	}
	expect("recovery", 7+int64(res.Attempts))
}
