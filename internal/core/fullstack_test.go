package core

import (
	"testing"

	"sensjoin/internal/routing"
	"sensjoin/internal/topology"
)

// The full protocol stack end to end: the collection-tree protocol forms
// the routing tree via beaconing, the query is flooded, the join
// executes over the beacon-built tree, and the result matches the
// oracle. This exercises the same sequence a real deployment runs
// (paper §III, "Query Processing").
func TestFullStackBeaconFloodExecute(t *testing.T) {
	r := testRunner(t, 200, 301)

	// 1. Tree formation by beaconing (replacing the instant BFS tree).
	proto := routing.NewProtocol(r.Net, 10)
	proto.RunRound()
	r.Sim.Run()
	tree, err := proto.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if tree.ReachableCount() != r.Dep.N() {
		t.Fatalf("beacon tree reaches %d of %d nodes", tree.ReachableCount(), r.Dep.N())
	}
	r.Tree = tree
	beacons := r.Stats.TotalTx(routing.PhaseBeacon)
	if beacons < int64(r.Dep.N()) {
		t.Fatalf("beacon traffic %d below node count", beacons)
	}

	// 2. Query dissemination by flooding.
	src := qBand(0.4)
	x, err := execSQL(r, src, 0)
	if err != nil {
		t.Fatal(err)
	}
	DisseminateQuery(x)
	if r.Stats.TotalTx(PhaseQueryDissem) < int64(r.Dep.N()) {
		t.Fatal("query flood did not reach the network")
	}

	// 3. Execution over the beacon-built tree.
	truth, err := GroundTruth(x)
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.Run(src, NewSENSJoin(), 0)
	if err != nil {
		t.Fatal(err)
	}
	sameTable(t, truth, res, "full-stack")

	// 4. Tree maintenance is common-mode: method comparisons exclude
	// beacon and flood phases by construction.
	sens := r.Stats.TotalTx(SENSPhases...)
	all := r.Stats.TotalTx()
	if sens >= all {
		t.Fatal("phase filtering broken: method total includes maintenance")
	}
}

// After a mid-run link failure, a beacon round repairs the tree and the
// re-execution over the repaired tree is complete — §IV-F with the real
// protocol rather than the instant rebuild.
func TestFullStackRepairViaBeacons(t *testing.T) {
	r := testRunner(t, 150, 303)
	proto := routing.NewProtocol(r.Net, 10)
	proto.RunRound()
	r.Sim.Run()
	tree, err := proto.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	r.Tree = tree

	src := qBand(0.4)
	child, parent := failLink(r)
	r.Net.LinkDown(child, parent)
	res, err := r.Run(src, NewSENSJoin(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Complete {
		t.Fatal("loss not detected over beacon tree")
	}

	// Repair: next beacon round re-routes around the dead link. The
	// query engine took over the radio handlers, so the protocol
	// re-registers first.
	proto.Reinstall()
	proto.RunRound()
	r.Sim.Run()
	repaired, err := proto.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if repaired.Reachable(child) && repaired.Parent[child] == parent {
		t.Fatal("beacon round did not reroute the victim")
	}
	r.Tree = repaired
	res, err = r.Run(src, NewSENSJoin(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Complete {
		t.Fatal("re-execution over the repaired beacon tree incomplete")
	}
}

// Handlers installed by one engine must not leak into the next: running
// methods back-to-back on one runner keeps each one's accounting clean.
func TestHandlerIsolationAcrossRuns(t *testing.T) {
	r := testRunner(t, 100, 307)
	src := qBand(0.4)
	if _, err := r.Run(src, External{}, 0); err != nil {
		t.Fatal(err)
	}
	extTotal := r.Stats.TotalTx()
	if r.Stats.TotalTx(SENSPhases...) != 0 {
		t.Fatal("external run charged SENS phases")
	}
	if _, err := r.Run(src, NewSENSJoin(), 0); err != nil {
		t.Fatal(err)
	}
	if r.Stats.TotalTx(ExternalPhases...) != extTotal {
		t.Fatal("SENS run charged external phases")
	}
	_ = topology.BaseStation
}
