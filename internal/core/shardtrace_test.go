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

// shardTraceJournal runs one traced query on a runner with the given
// shard count and returns the run's journal plus its JSONL rendering.
func shardTraceJournal(t *testing.T, shards int, m Method) (*trace.Journal, []byte) {
	t.Helper()
	r, err := NewRunner(SetupConfig{Nodes: 300, Seed: 3, Shards: shards, Private: true, SetupWorkers: 1})
	if err != nil {
		t.Fatal(err)
	}
	rec := r.EnableTrace()
	mark := rec.Mark()
	if _, err := r.Run(shardTraceSrc, m, 0); err != nil {
		t.Fatal(err)
	}
	if shards > 1 && !r.Sim.Sharded() {
		t.Fatalf("shards=%d: simulator fell back to the classic engine under tracing", shards)
	}
	j := rec.JournalSince(mark)
	var buf bytes.Buffer
	if err := trace.WriteJSONL(&buf, j); err != nil {
		t.Fatal(err)
	}
	return j, buf.Bytes()
}

// The tentpole contract of sharded tracing: for any shard count the
// recorded journal is BYTE-identical — per-sender message ids, region
// clocks for timestamps and the canonical journal order remove every
// trace of worker interleaving.
func TestShardTraceDeterministicJournal(t *testing.T) {
	for _, m := range []Method{NewSENSJoin(), External{}} {
		_, ref := shardTraceJournal(t, 0, m)
		if len(ref) == 0 {
			t.Fatalf("%s: classic journal is empty", m.Name())
		}
		for _, shards := range []int{2, 8} {
			_, got := shardTraceJournal(t, shards, m)
			if !bytes.Equal(ref, got) {
				t.Fatalf("%s: journal at shards=%d differs from the classic engine (%d vs %d bytes)",
					m.Name(), shards, len(got), len(ref))
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
