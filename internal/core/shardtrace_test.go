package core

import (
	"bytes"
	"fmt"
	"sort"
	"testing"

	"sensjoin/internal/metrics"
	"sensjoin/internal/trace"
)

const shardTraceSrc = `SELECT A.temp, B.hum FROM Sensors A, Sensors B WHERE A.temp - B.temp > 8.0 ONCE`

// shardTraceJournal traces what run does on a runner with the given
// shard count and returns the journal's JSONL rendering.
func shardTraceJournal(t *testing.T, shards int, run func(r *Runner) error) []byte {
	t.Helper()
	r, err := NewRunner(SetupConfig{Nodes: 300, Seed: 3, Shards: shards, Private: true, SetupWorkers: 1})
	if err != nil {
		t.Fatal(err)
	}
	rec := r.EnableTrace()
	mark := rec.Mark()
	if err := run(r); err != nil {
		t.Fatal(err)
	}
	if shards > 1 && !r.Sim.Sharded() {
		t.Fatalf("shards=%d: simulator fell back to the classic engine under tracing", shards)
	}
	var buf bytes.Buffer
	if err := trace.WriteJSONL(&buf, rec.JournalSince(mark)); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// The tentpole contract of sharded tracing: for any shard count the
// recorded journal is BYTE-identical — per-sender message ids, region
// clocks for timestamps and the canonical journal order remove every
// trace of worker interleaving. Every way a wave is scheduled is here:
// the three SENS-Join phases, the external join's collection, Mediated's
// collection along a tree rooted away from node 0, a shared round of
// three queries, and continuous SENS-Join over several epochs. A wave's
// deadlines are one queue entry per (tree level, region); a deadline that
// ran out of id order, or a level handed to another region in a different
// order, would renumber a sender's messages.
func TestShardTraceDeterministicJournal(t *testing.T) {
	single := func(m Method) func(r *Runner) error {
		return func(r *Runner) error { _, err := r.Run(shardTraceSrc, m, 0); return err }
	}
	for _, lane := range []struct {
		name string
		run  func(r *Runner) error
	}{
		{"sens-join", single(NewSENSJoin())},
		{"external-join", single(External{})},
		{"mediated-join", single(Mediated{})},
		{"3-member group round", func(r *Runner) error {
			g := NewQueryGroup(Options{})
			for _, delta := range []float64{7, 7.5, 8} {
				p, err := r.Prepare(qTempBand(delta))
				if err != nil {
					return err
				}
				if _, err := g.Add(p); err != nil {
					return err
				}
			}
			if g.Clusters() != 1 {
				return fmt.Errorf("Clusters = %d, want one three-member cluster", g.Clusters())
			}
			_, err := g.RunRound(r, 0)
			return err
		}},
		{"continuous sens-join", func(r *Runner) error {
			cont := NewContinuousSENSJoin()
			for epoch := 0; epoch < 3; epoch++ {
				if _, err := r.Run(shardTraceSrc, cont, float64(epoch)*30); err != nil {
					return err
				}
			}
			return nil
		}},
	} {
		ref := shardTraceJournal(t, 0, lane.run)
		if len(ref) == 0 {
			t.Fatalf("%s: classic journal is empty", lane.name)
		}
		for _, shards := range []int{2, 4, 8} {
			if got := shardTraceJournal(t, shards, lane.run); !bytes.Equal(ref, got) {
				t.Fatalf("%s: journal at shards=%d differs from the classic engine (%d vs %d bytes)",
					lane.name, shards, len(got), len(ref))
			}
		}
	}
}

// A sharded, traced execution must pass every audit pass. AuditRun
// covers conservation, reconciliation, slot order, reliability and
// filter soundness; churn safety — sixth — runs directly on the merged
// journal with the run's own verdict (churn itself forces the classic
// engine, so this is the only way to exercise the pass on a sharded
// journal).
func TestShardTraceAuditsClean(t *testing.T) {
	for _, shards := range []int{2, 8} {
		r, err := NewRunner(SetupConfig{Nodes: 300, Seed: 3, Shards: shards, Private: true, SetupWorkers: 1})
		if err != nil {
			t.Fatal(err)
		}
		rec := r.EnableTrace()
		mark := rec.Mark()
		res, err := r.Run(shardTraceSrc, NewSENSJoin(), 0, Audited())
		if err != nil {
			t.Fatal(err)
		}
		violations := res.Violations
		if !r.Sim.Sharded() {
			t.Fatalf("shards=%d: AuditRun fell back to the classic engine", shards)
		}
		j := rec.JournalSince(mark)
		violations = append(violations, trace.ChurnSafety(j, trace.ChurnVerdict{
			Complete:    res.Complete,
			OracleExact: true,
		})...)
		if len(violations) > 0 {
			t.Fatalf("shards=%d: %d violation(s), first: %s", shards, len(violations), violations[0])
		}
		if !res.Complete {
			t.Fatalf("shards=%d: run incomplete: %s", shards, res.IncompleteReason)
		}
	}
}

// Metrics, like tracing, must compose with the sharded engine rather
// than force a fallback: a metered sharded run stays sharded, counts
// real traffic, and returns the same rows as the classic engine.
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
		t.Fatal("EnableMetrics reverted the sharded engine")
	}
	res, err := r.Run(shardTraceSrc, NewSENSJoin(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Sim.Sharded() {
		t.Fatal("simulator fell back to the classic engine during a metered run")
	}
	// Row ORDER may differ between engines (same-time arrival ties at
	// the base station resolve differently); the row multiset may not.
	if got, want := sortedRows(res.Rows), sortedRows(ref.Rows); !equalStrings(got, want) {
		t.Fatalf("metered sharded rows differ from classic: %d vs %d rows", len(res.Rows), len(ref.Rows))
	}
	snap := reg.Snapshot()
	tx, _ := snap["sensjoin_netsim_tx_packets_total"].(int64)
	if tx <= 0 {
		t.Fatalf("sensjoin_netsim_tx_packets_total = %d, want > 0", tx)
	}
}

func sortedRows(rows []Row) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = fmt.Sprint(r)
	}
	sort.Strings(out)
	return out
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
