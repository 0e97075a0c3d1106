package core

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"testing"

	"sensjoin/internal/netsim"
	"sensjoin/internal/topology"
	"sensjoin/internal/trace"
)

// recoveryDigests were recorded before recovery's wave forwarded by
// reference, when every hop still copied its tuples into a per-node inbox.
// A lane is named "<shard-trace lane>/<shards>"; "stand-down chain" is the
// jammed chain of TestFilterStandDownForcesSubtreeRecovery.
var recoveryDigests = map[string]string{
	"reliable, per-link loss/1":    "908c8e2429eb44c61d716a0a8f91ec96f0e46b1d4110c1d2a91ba29653751685",
	"reliable, per-link loss/2":    "908c8e2429eb44c61d716a0a8f91ec96f0e46b1d4110c1d2a91ba29653751685",
	"reliable, 1% churn, repair/1": "0ad764a76e635406660caf530cb8b9fdebde9502d9ea5f3640264ddc6717993c",
	"reliable, 1% churn, repair/2": "0ad764a76e635406660caf530cb8b9fdebde9502d9ea5f3640264ddc6717993c",
	"everything/1":                 "8bcb09e2a98103f63a3149034ddc1acf6f8365f5b34d667d9249b27d4f5eccfc",
	"everything/2":                 "8bcb09e2a98103f63a3149034ddc1acf6f8365f5b34d667d9249b27d4f5eccfc",
	"stand-down chain":             "cf0ca19b84a5a7564d3d010f1a0dd4d81a1f12d9fb535ba5200657f7c1dd7936",
}

// recoveryDigest hashes what a recovering run shows its readers: the JSONL
// journal, and per result its rows and every completeness and recovery
// field, then the simulator's step count and final clock.
func recoveryDigest(t *testing.T, r *Runner, rec *trace.Recorder, results []*Result) string {
	t.Helper()
	var buf bytes.Buffer
	if err := trace.WriteJSONL(&buf, rec.Journal()); err != nil {
		t.Fatal(err)
	}
	for _, res := range results {
		fmt.Fprintf(&buf, "%v|%t|%v|%d|%d|%v|%v|%q\n", res.Rows, res.Complete, res.ResponseTime,
			res.RecoveryRounds, res.Repairs, res.RepairLatency, res.MissingSubtrees, res.IncompleteReason)
	}
	fmt.Fprintf(&buf, "steps=%d now=%v\n", r.Sim.Steps(), r.Sim.Now())
	return fmt.Sprintf("%x", sha256.Sum256(buf.Bytes()))
}

// Scoped recovery re-collects what a round lost; these runs recover
// through every path it has (a jammed tree edge, churn with mid-round
// repair, everything at once, a filter stand-down) and must show their
// readers exactly what they showed before its wave was rebuilt.
func TestRecoveryDigests(t *testing.T) {
	check := func(name, got string) {
		t.Helper()
		if want, ok := recoveryDigests[name]; !ok || got != want {
			t.Errorf("%s: digest %s, want %s", name, got, want)
		}
	}
	recovering := map[string]bool{"reliable, per-link loss": true, "reliable, 1% churn, repair": true, "everything": true}
	for _, lane := range faultLanes() {
		if !recovering[lane.name] {
			continue
		}
		for _, shards := range []int{1, 2} {
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
			rounds := 0
			for _, res := range results {
				rounds += res.RecoveryRounds
			}
			if rounds == 0 {
				t.Fatalf("%s: no recovery round ran", lane.name)
			}
			check(fmt.Sprintf("%s/%d", lane.name, shards), recoveryDigest(t, r, rec, results))
		}
	}

	r := NewRunnerFromDeployment(topology.Line(12, 40, 50), netsim.RadioConfig{}, 5)
	rec := trace.New()
	r.Net.SetLinkLossRate(1, 2, 1.0)
	res, err := r.Run(qBand(10), NewSENSJoin(), 0, WithReliable(netsim.ReliableConfig{}), Traced(rec), Audited())
	if err != nil {
		t.Fatal(err)
	}
	check("stand-down chain", recoveryDigest(t, r, rec, []*Result{res}))
}
