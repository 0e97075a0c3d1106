package core

import (
	"bytes"
	"fmt"
	"testing"

	"sensjoin/internal/metrics"
	"sensjoin/internal/netsim"
	"sensjoin/internal/trace"
)

const shardTraceSrc = `SELECT A.temp, B.hum FROM Sensors A, Sensors B WHERE A.temp - B.temp > 8.0 ONCE`

// shardLane is one configuration the sharded engine must run exactly like
// one region: arm breaks a new runner's network (per-link loss, churn);
// opts are the options every execution runs with, in the lane's order,
// given the option that journals it; run executes with them and returns
// every result.
type shardLane struct {
	name string
	arm  func(r *Runner)
	opts func(traced RunOption) []RunOption
	run  func(r *Runner, opts ...RunOption) ([]*Result, error)
}

// noFault leaves a runner's network as built.
func noFault(*Runner) {}

// with returns the journal followed by opts.
func with(opts ...RunOption) func(RunOption) []RunOption {
	return func(traced RunOption) []RunOption { return append([]RunOption{traced}, opts...) }
}

// once runs shardTraceSrc with m.
func once(m Method) func(r *Runner, opts ...RunOption) ([]*Result, error) {
	return func(r *Runner, opts ...RunOption) ([]*Result, error) {
		res, err := r.Run(shardTraceSrc, m, 0, opts...)
		return []*Result{res}, err
	}
}

// epochs runs shardTraceSrc with SENS-Join once per 30 s epoch, k times,
// covering each epoch with the runner's churn (when attached) and idling
// to its end, as the X10 harness does.
func epochs(k int) func(r *Runner, opts ...RunOption) ([]*Result, error) {
	return func(r *Runner, opts ...RunOption) ([]*Result, error) {
		var out []*Result
		for e := 0; e < k; e++ {
			horizon := r.Sim.Now() + 30
			if r.churn != nil {
				r.churn.Cover(horizon)
			}
			res, err := r.Run(shardTraceSrc, NewSENSJoin(), 0, opts...)
			if err != nil {
				return nil, err
			}
			out = append(out, res)
			r.Sim.RunUntil(horizon)
		}
		return out, nil
	}
}

// faultLanes are loss, reliable transport and churn, alone and together.
func faultLanes() []shardLane {
	reliable := WithReliable(netsim.ReliableConfig{})
	churn := func(r *Runner) { r.AttachChurn(netsim.ChurnConfig{Seed: 5, Rate: 0.01, Epoch: 30}) }
	// A tree edge that drops every packet forces a give-up and scoped
	// recovery; two more lose some.
	linkLoss := func(r *Runner) {
		child, parent := failLink(r)
		r.Net.SetLinkLossRate(child, parent, 1)
		r.Net.SetLinkLossRate(parent, child, 0.3)
		r.Net.SetLinkLossRate(7, r.Tree.Parent[7], 0.5)
	}
	return []shardLane{
		{"5% loss", noFault, with(WithLoss(0.05, 11)), once(NewSENSJoin())},
		{"reliable, 5% loss", noFault, with(reliable, WithLoss(0.05, 12)), once(NewSENSJoin())},
		{"reliable, per-link loss", linkLoss, with(reliable), once(NewSENSJoin())},
		{"reliable, 1% churn, repair", churn, with(reliable), epochs(4)},
		{"everything", func(r *Runner) {
			linkLoss(r)
			churn(r)
		}, with(WithLoss(0.05, 13), reliable), epochs(4)},
	}
}

// shardLanes is every lane of the journal test: each way a wave is
// scheduled, and the fault lanes.
func shardLanes() []shardLane {
	lanes := []shardLane{
		{"sens-join", noFault, with(), once(NewSENSJoin())},
		{"external-join", noFault, with(), once(External{})},
		{"mediated-join", noFault, with(), once(Mediated{})},
		{"3-member group round", noFault, with(), func(r *Runner, opts ...RunOption) ([]*Result, error) {
			g := NewQueryGroup(Options{})
			for _, delta := range []float64{7, 7.5, 8} {
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
			return g.RunRound(r, 0, opts...)
		}},
		{"continuous sens-join", noFault, with(), func(r *Runner, opts ...RunOption) ([]*Result, error) {
			cont := NewContinuousSENSJoin()
			var out []*Result
			for epoch := 0; epoch < 3; epoch++ {
				res, err := r.Run(shardTraceSrc, cont, float64(epoch)*30, opts...)
				if err != nil {
					return nil, err
				}
				out = append(out, res)
			}
			return out, nil
		}},
	}
	return append(lanes, faultLanes()...)
}

// orderingLanes are the orders features can be switched on in — as an
// execution's options or straight on the network beforehand — each of
// which once reverted a sharded runner to a second engine.
func orderingLanes() []shardLane {
	reliable := WithReliable(netsim.ReliableConfig{})
	loss := WithLoss(0.05, 1)
	var lanes []shardLane
	for _, o := range []struct {
		name string
		arm  func(*Runner)
		opts func(RunOption) []RunOption
	}{
		{"trace", noFault, with()},
		{"reliable", noFault, with(reliable)},
		{"loss", noFault, with(loss)},
		{"link-loss", func(r *Runner) { r.Net.SetLinkLossRate(1, 2, 0.5) }, with()},
		{"trace-then-reliable", noFault, with(reliable)},
		{"reliable-then-trace", noFault, func(traced RunOption) []RunOption { return []RunOption{reliable, traced} }},
		{"loss-then-trace-then-reliable", noFault, func(traced RunOption) []RunOption {
			return []RunOption{loss, traced, reliable}
		}},
		{"netsim-reliable-direct", func(r *Runner) { r.Net.EnableReliable(netsim.ReliableConfig{}) }, with()},
		// The execution's journal replaces a tracer set on the network.
		{"netsim-tracer-direct", func(r *Runner) { r.Net.SetTracer(func(netsim.TraceEvent) {}) }, with()},
		{"netsim-linkloss-direct", func(r *Runner) { r.Net.SetLinkLossRate(3, 4, 1.0) }, with()},
	} {
		lanes = append(lanes, shardLane{o.name, o.arm, o.opts, once(NewSENSJoin())})
	}
	return lanes
}

// shardTraceRun arms and traces a lane on a runner with the given shard
// count and returns the journal's JSONL rendering and every result's rows.
func shardTraceRun(t *testing.T, shards int, lane shardLane) (journal []byte, rows string) {
	t.Helper()
	r, err := NewRunner(SetupConfig{Nodes: 300, Seed: 3, Shards: shards, Private: true, SetupWorkers: 1})
	if err != nil {
		t.Fatal(err)
	}
	lane.arm(r)
	rec := trace.New()
	results, err := lane.run(r, lane.opts(Traced(rec))...)
	if err != nil {
		t.Fatal(err)
	}
	if shards > 1 && !r.Sim.Sharded() {
		t.Fatalf("shards=%d: the runner is no longer sharded", shards)
	}
	var buf bytes.Buffer
	if err := trace.WriteJSONL(&buf, rec.Journal()); err != nil {
		t.Fatal(err)
	}
	for _, res := range results {
		rows += fmt.Sprintf("%v complete=%t\n", res.Rows, res.Complete)
	}
	return buf.Bytes(), rows
}

// The tentpole contract of the one engine: for any shard count the
// recorded journal is BYTE-identical and the rows are identical — event
// keys that name the scheduling node instead of a region, per-sender
// message ids, a stateless loss draw, region clocks for timestamps and
// the canonical journal order remove every trace of the partition and of
// worker interleaving. Every way a wave is scheduled is here — the three
// SENS-Join phases, the external join's collection, Mediated's collection
// along a tree rooted away from node 0, a shared round of three queries,
// continuous SENS-Join over several epochs — and so are loss, reliable
// transport, churn with repair, and all of them at once.
func TestShardTraceDeterministicJournal(t *testing.T) {
	for _, lane := range shardLanes() {
		t.Run(lane.name, func(t *testing.T) { assertLaneMatchesOneRegion(t, lane) })
	}
}

// assertLaneMatchesOneRegion runs lane on one region and on 2 and 8, and
// fails unless the journals are byte-identical and the rows equal.
func assertLaneMatchesOneRegion(t *testing.T, lane shardLane) {
	t.Helper()
	ref, refRows := shardTraceRun(t, 0, lane)
	if len(ref) == 0 {
		t.Fatal("the one-region journal is empty")
	}
	for _, shards := range []int{2, 8} {
		got, rows := shardTraceRun(t, shards, lane)
		if !bytes.Equal(ref, got) {
			t.Fatalf("journal at shards=%d differs from one region (%d vs %d bytes)", shards, len(got), len(ref))
		}
		if rows != refRows {
			t.Fatalf("rows at shards=%d differ from one region:\n%s\nvs\n%s", shards, rows, refRows)
		}
	}
}

// Every order of switching features on, as options or straight on the
// network, once made a sharded runner fall back to a second engine.
// Each now keeps the runner sharded (shardTraceRun checks it), and its
// journal and rows are those of one region.
func TestShardFeatureFallbackOrderings(t *testing.T) {
	for _, lane := range orderingLanes() {
		t.Run(lane.name, func(t *testing.T) { assertLaneMatchesOneRegion(t, lane) })
	}
}

// Reliable transport switched on before sharding, the construction-time
// order, once made BindSharding fall back. The runner stays sharded and
// returns the rows of one region.
func TestShardBindAfterFeatureFallsBack(t *testing.T) {
	mk := func() *Runner {
		r, err := NewRunner(SetupConfig{Nodes: 150, Seed: 7, Private: true, SetupWorkers: 1})
		if err != nil {
			t.Fatal(err)
		}
		r.Net.EnableReliable(netsim.ReliableConfig{})
		return r
	}
	ref, err := mk().Run(shardTraceSrc, NewSENSJoin(), 0)
	if err != nil {
		t.Fatal(err)
	}
	r := mk()
	r.Sim.EnableSharding(make([]int32, r.Dep.N()), 2, 1e-3, 2)
	r.Net.BindSharding()
	if !r.Sim.Sharded() {
		t.Fatal("BindSharding after reliable transport changed the engine")
	}
	res, err := r.Run(shardTraceSrc, NewSENSJoin(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Sim.Sharded() {
		t.Fatal("a reliable run changed the engine")
	}
	sameOrder(t, ref, res, "sharded vs one region")
}

// A sharded, traced execution must pass every audit pass, faults
// included. Audited covers conservation, reconciliation, slot order,
// reliability and filter soundness, and churn safety — sixth — wherever
// churn is attached; without churn the pass runs here, on the merged
// journal, against the ground truth taken before the run.
func TestShardTraceAuditsClean(t *testing.T) {
	lanes := append([]shardLane{{"sens-join", noFault, with(), once(NewSENSJoin())}}, faultLanes()...)
	for _, lane := range lanes {
		t.Run(lane.name, func(t *testing.T) {
			for _, shards := range []int{2, 8} {
				r, err := NewRunner(SetupConfig{Nodes: 300, Seed: 3, Shards: shards, Private: true, SetupWorkers: 1})
				if err != nil {
					t.Fatal(err)
				}
				lane.arm(r)
				rec := trace.New()
				var truth *Result
				if r.churn == nil {
					x, err := execSQL(r, shardTraceSrc, 0)
					if err != nil {
						t.Fatal(err)
					}
					if truth, err = GroundTruth(x); err != nil {
						t.Fatal(err)
					}
				}
				results, err := lane.run(r, append(lane.opts(Traced(rec)), Audited())...)
				if err != nil {
					t.Fatal(err)
				}
				if !r.Sim.Sharded() {
					t.Fatalf("shards=%d: the runner is no longer sharded", shards)
				}
				var violations []trace.Violation
				for _, res := range results {
					violations = append(violations, res.Violations...)
				}
				if truth != nil {
					res := results[0]
					violations = append(violations, trace.ChurnSafety(rec.Journal(), trace.ChurnVerdict{
						Complete:        res.Complete,
						OracleExact:     sameRowSet(truth.Rows, res.Rows),
						Reason:          res.IncompleteReason,
						MissingSubtrees: len(res.MissingSubtrees),
					})...)
				}
				if len(violations) > 0 {
					t.Fatalf("shards=%d: %d violation(s), first: %s", shards, len(violations), violations[0])
				}
			}
		})
	}
}

// Metrics, like tracing, must compose with the sharded engine: a metered
// sharded run stays sharded, counts real traffic, and returns the rows of
// one region.
func TestShardMetricsStaysSharded(t *testing.T) {
	classic, err := NewRunner(SetupConfig{Nodes: 300, Seed: 3, Private: true, SetupWorkers: 1})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := classic.Run(shardTraceSrc, NewSENSJoin(), 0)
	if err != nil {
		t.Fatal(err)
	}

	reg := metrics.New()
	r, err := NewRunner(SetupConfig{Nodes: 300, Seed: 3, Shards: 4, Private: true, SetupWorkers: 1})
	if err != nil {
		t.Fatal(err)
	}
	r.EnableMetrics(reg)
	if !r.Sim.Sharded() {
		t.Fatal("EnableMetrics changed the engine")
	}
	res, err := r.Run(shardTraceSrc, NewSENSJoin(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Sim.Sharded() {
		t.Fatal("a metered run changed the engine")
	}
	sameOrder(t, ref, res, "metered sharded vs one region")
	snap := reg.Snapshot()
	tx, _ := snap["sensjoin_netsim_tx_packets_total"].(int64)
	if tx <= 0 {
		t.Fatalf("sensjoin_netsim_tx_packets_total = %d, want > 0", tx)
	}
}
