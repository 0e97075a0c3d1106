package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"sensjoin/internal/netsim"
	"sensjoin/internal/stats"
	"sensjoin/internal/topology"
	"sensjoin/internal/trace"
)

// rowlessRun is what one traced run leaves behind: its results, the
// journal's JSONL rendering, every counter of the collector and the
// simulator's step count.
type rowlessRun struct {
	results []*Result
	journal []byte
	stats   string
	steps   int64
	err     error
}

// rowlessCondition arms a runner with faults and says which options every
// round of the condition passes.
type rowlessCondition struct {
	name   string
	arm    func(*Runner)
	opts   []RunOption
	epochs int
	// reexecutes says the first round must take a second attempt.
	reexecutes bool
}

// rowlessSrc is a plain band join whose result at 150 nodes is not empty.
const rowlessSrc = "SELECT A.temp, B.hum FROM Sensors A, Sensors B WHERE A.temp - B.temp > 4 ONCE"

func rowlessConditions() []rowlessCondition {
	return []rowlessCondition{
		{name: "fault-free", arm: func(*Runner) {}, epochs: 1},
		{name: "5% loss, reliable", arm: func(*Runner) {},
			opts: []RunOption{WithReliable(netsim.ReliableConfig{}), WithLoss(0.05, 11)}, epochs: 1},
		// A severed tree edge makes the first attempt incomplete, so
		// WithRecovery rebuilds the tree and re-executes.
		{name: "churn, WithRecovery", arm: func(r *Runner) {
			r.AttachChurn(netsim.ChurnConfig{Seed: 5, Rate: 0.02, Epoch: 30})
			r.Net.LinkDown(failLink(r))
		}, opts: []RunOption{WithRecovery(3)}, epochs: 3, reexecutes: true},
	}
}

// rowlessTrace arms a fresh traced runner and runs round once per 30 s
// epoch, covering each epoch with the runner's churn and idling to its
// end.
func rowlessTrace(t *testing.T, shards int, c rowlessCondition,
	round func(r *Runner, at float64, opts ...RunOption) ([]*Result, error), opts ...RunOption) rowlessRun {
	t.Helper()
	r, err := NewRunner(SetupConfig{Nodes: 150, Seed: 9, Shards: shards, Private: true, SetupWorkers: 1})
	if err != nil {
		t.Fatal(err)
	}
	c.arm(r)
	rec := trace.New()
	var out rowlessRun
	for e := 0; e < c.epochs; e++ {
		horizon := r.Sim.Now() + 30
		if r.churn != nil {
			r.churn.Cover(horizon)
		}
		res, err := round(r, float64(e)*30, append(append([]RunOption{Traced(rec)}, c.opts...), opts...)...)
		if err != nil {
			out.err = err
			break
		}
		out.results = append(out.results, res...)
		r.Sim.RunUntil(horizon)
	}
	var buf bytes.Buffer
	if err := trace.WriteJSONL(&buf, rec.Journal()); err != nil {
		t.Fatal(err)
	}
	out.journal = buf.Bytes()
	out.stats = statsDigest(r)
	out.steps = r.Sim.Steps()
	return out
}

// statsDigest renders every node's transmitted and received counters of
// every phase.
func statsDigest(r *Runner) string {
	snap := r.Stats.Snapshot()
	var b strings.Builder
	for _, ph := range snap.Phases() {
		for id := 0; id < snap.N(); id++ {
			tx, rx := snap.Tx(topology.NodeID(id), ph), snap.Rx(topology.NodeID(id), ph)
			if tx != (stats.Counter{}) || rx != (stats.Counter{}) {
				fmt.Fprintf(&b, "%s %d %v %v\n", ph, id, tx, rx)
			}
		}
	}
	return b.String()
}

// withoutRowsOf is res with its rows and their storage dropped: what a
// WithoutRows run of the same round must return.
func withoutRowsOf(res *Result) Result {
	cp := *res
	cp.Rows, cp.block = nil, nil
	return cp
}

// assertOnlyRowsDiffer fails unless rowless is built, result for result,
// except that a plain query's rows are nil where built has them: the same
// errors, every other result field, the collector, the simulator's steps
// and the journal byte for byte. plain says whether the query is plain.
func assertOnlyRowsDiffer(t *testing.T, built, rowless rowlessRun, plain bool) {
	t.Helper()
	if fmt.Sprint(built.err) != fmt.Sprint(rowless.err) {
		t.Fatalf("errors differ: %v with rows, %v without", built.err, rowless.err)
	}
	if len(built.results) != len(rowless.results) {
		t.Fatalf("%d results with rows, %d without", len(built.results), len(rowless.results))
	}
	for i, b := range built.results {
		g := rowless.results[i]
		if plain && g.Rows != nil {
			t.Fatalf("result %d: %d rows, want none", i, len(g.Rows))
		}
		if !plain && !rowsEqual(g.Rows, b.Rows) {
			t.Fatalf("result %d: a folded query's rows differ without rows: %v vs %v", i, g.Rows, b.Rows)
		}
		if want, got := withoutRowsOf(b), withoutRowsOf(g); !reflect.DeepEqual(want, got) {
			t.Fatalf("result %d differs beyond its rows:\n%+v\nwith rows\n%+v", i, got, want)
		}
	}
	if built.stats != rowless.stats {
		t.Fatal("the collector's counters differ")
	}
	if built.steps != rowless.steps {
		t.Fatalf("simulator steps: %d with rows, %d without", built.steps, rowless.steps)
	}
	if !bytes.Equal(built.journal, rowless.journal) {
		t.Fatalf("journals differ (%d vs %d bytes)", len(built.journal), len(rowless.journal))
	}
}

// WithoutRows changes a round's result only in its rows: every method,
// under faults and recovery, on one region and two, for a QueryGroup
// cluster too. A folded query keeps its rows, and an audited round builds
// them and holds its oracle.
func TestWithoutRowsChangesOnlyRows(t *testing.T) {
	methods := []Method{External{}, NewSENSJoin(), SemiJoin{}, Mediated{}}
	for i, m := range methods {
		srcs := []string{
			randomQuery(rand.New(rand.NewSource(int64(3100 + i)))),
			// LIMIT caps the count that sizes a mediated join's shipment.
			"SELECT A.temp, B.temp FROM Sensors A, Sensors B WHERE A.temp - B.temp > 4 ORDER BY 1 LIMIT 7 ONCE",
		}
		for _, c := range rowlessConditions() {
			for _, shards := range []int{1, 2} {
				for q, src := range srcs {
					t.Run(fmt.Sprintf("%s/%s/shards=%d/q%d", m.Name(), c.name, shards, q), func(t *testing.T) {
						round := func(r *Runner, at float64, opts ...RunOption) ([]*Result, error) {
							res, err := r.Run(src, m, at, opts...)
							return []*Result{res}, err
						}
						built := rowlessTrace(t, shards, c, round)
						// The mediated join routes on a tree of its own over
						// the live links, so a severed edge costs it nothing.
						_, mediated := m.(Mediated)
						if c.reexecutes && !mediated && built.err == nil && built.results[0].Attempts < 2 {
							t.Fatalf("%q: the first round took %d attempt(s), want a re-execution", src, built.results[0].Attempts)
						}
						assertOnlyRowsDiffer(t, built, rowlessTrace(t, shards, c, round, WithoutRows()), true)
					})
				}
			}
		}
	}

	t.Run("3-member cluster", func(t *testing.T) {
		round := func(r *Runner, at float64, opts ...RunOption) ([]*Result, error) {
			g := NewQueryGroup(Options{})
			for _, delta := range []float64{3, 3.5, 4} {
				p, err := r.Prepare(qTempBand(delta))
				if err != nil {
					return nil, err
				}
				if _, err := g.Add(p); err != nil {
					return nil, err
				}
			}
			if g.Clusters() != 1 {
				return nil, fmt.Errorf("Clusters = %d, want one three-member cluster", g.Clusters())
			}
			return g.RunRound(r, at, opts...)
		}
		for _, c := range rowlessConditions() {
			for _, shards := range []int{1, 2} {
				built := rowlessTrace(t, shards, c, round)
				if built.err != nil {
					t.Fatal(built.err)
				}
				if len(built.results[0].Rows) == 0 {
					t.Fatalf("%s: an empty cluster result proves nothing", c.name)
				}
				assertOnlyRowsDiffer(t, built, rowlessTrace(t, shards, c, round, WithoutRows()), true)
			}
		}
	})

	t.Run("folded queries keep their rows", func(t *testing.T) {
		for _, src := range []string{
			"SELECT COUNT(A.temp), AVG(B.hum) FROM Sensors A, Sensors B WHERE A.temp - B.temp > 5 ONCE",
			"SELECT A.temp, AVG(A.temp - B.temp), MAX(B.hum) FROM Sensors A, Sensors B WHERE A.temp - B.temp > 4 GROUP BY A.temp ORDER BY 1 ONCE",
		} {
			for _, m := range methods {
				round := func(r *Runner, at float64, opts ...RunOption) ([]*Result, error) {
					res, err := r.Run(src, m, at, opts...)
					return []*Result{res}, err
				}
				c := rowlessConditions()[0]
				built := rowlessTrace(t, 1, c, round)
				if built.err != nil {
					t.Fatalf("%s %q: %v", m.Name(), src, built.err)
				}
				if len(built.results[0].Rows) == 0 {
					t.Fatalf("%s %q: no rows proves nothing", m.Name(), src)
				}
				assertOnlyRowsDiffer(t, built, rowlessTrace(t, 1, c, round, WithoutRows()), false)
			}
		}
	})

	t.Run("audited rounds build rows", func(t *testing.T) {
		for _, c := range rowlessConditions() {
			r, err := NewRunner(SetupConfig{Nodes: 150, Seed: 9, Private: true, SetupWorkers: 1})
			if err != nil {
				t.Fatal(err)
			}
			c.arm(r)
			built := 0
			for e := 0; e < c.epochs; e++ {
				at := float64(e) * 30
				horizon := r.Sim.Now() + 30
				if r.churn != nil {
					r.churn.Cover(horizon)
				}
				x, err := execSQL(r, rowlessSrc, at)
				if err != nil {
					t.Fatal(err)
				}
				truth, err := GroundTruth(x)
				if err != nil {
					t.Fatal(err)
				}
				res, err := r.Run(rowlessSrc, NewSENSJoin(), at, append(c.opts, Audited(), WithoutRows())...)
				if err != nil {
					t.Fatal(err)
				}
				if len(res.Violations) > 0 {
					t.Fatalf("%s epoch %d: %d violation(s), first: %s", c.name, e, len(res.Violations), res.Violations[0])
				}
				if res.Complete && !sameRowSet(truth.Rows, res.Rows) {
					t.Fatalf("%s epoch %d: %d rows, ground truth %d", c.name, e, len(res.Rows), len(truth.Rows))
				}
				built += len(res.Rows)
				r.Sim.RunUntil(horizon)
			}
			if built == 0 {
				t.Fatalf("%s: no audited round built a row", c.name)
			}
		}
	})
}
