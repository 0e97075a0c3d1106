package sensjoin_test

import (
	"testing"

	"sensjoin"
)

// setupZones splits a network into two positional relations and returns
// the network plus the member counts of each zone.
func setupZones(t *testing.T, nodes int, seed int64) (*sensjoin.Network, int, int) {
	t.Helper()
	net, err := sensjoin.NewNetwork(sensjoin.Config{Nodes: nodes, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	truth, err := net.GroundTruth("SELECT S.x FROM Sensors S ONCE")
	if err != nil {
		t.Fatal(err)
	}
	half := net.Area().Width() / 2
	west := make(map[int]bool)
	for i, row := range truth.Rows {
		if row[0] < half {
			west[i+1] = true
		}
	}
	if err := net.DefineRelation("West", func(n int) bool { return west[n] }); err != nil {
		t.Fatal(err)
	}
	if err := net.DefineRelation("East", func(n int) bool { return !west[n] }); err != nil {
		t.Fatal(err)
	}
	return net, len(west), nodes - len(west)
}

func TestHeterogeneousJoinMatchesOracle(t *testing.T) {
	net, _, _ := setupZones(t, 200, 31)
	const q = `
		SELECT A.temp, B.temp FROM West A, East B
		WHERE A.temp - B.temp > 4 ONCE`
	truth, err := net.GroundTruth(q)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []sensjoin.Method{sensjoin.SENSJoin(), sensjoin.ExternalJoin()} {
		res, err := net.Execute(q, m)
		if err != nil {
			t.Fatalf("%s: %v", m.Name(), err)
		}
		sameTable(t, truth, res, m.Name())
	}
}

func TestHeterogeneousMembership(t *testing.T) {
	net, wCount, eCount := setupZones(t, 200, 37)
	if wCount == 0 || eCount == 0 {
		t.Skip("degenerate split")
	}
	// A collection query on one relation returns exactly its members.
	res, err := net.Execute("SELECT A.temp FROM West A ONCE", sensjoin.ExternalJoin())
	if err != nil {
		t.Fatal(err)
	}
	if res.MemberNodes != wCount || len(res.Rows) != wCount {
		t.Fatalf("West members = %d rows = %d, want %d", res.MemberNodes, len(res.Rows), wCount)
	}
	// The cross join counts the union of both relations' members.
	res, err = net.Execute("SELECT A.temp, B.temp FROM West A, East B WHERE A.temp - B.temp > 2 ONCE", sensjoin.ExternalJoin())
	if err != nil {
		t.Fatal(err)
	}
	if res.MemberNodes != wCount+eCount {
		t.Fatalf("join members = %d, want %d", res.MemberNodes, wCount+eCount)
	}
}

func TestDefineRelationValidation(t *testing.T) {
	net, _, _ := setupZones(t, 50, 41)
	if err := net.DefineRelation("West", func(int) bool { return true }); err == nil {
		t.Fatal("duplicate relation must fail")
	}
	if err := net.DefineRelation("", func(int) bool { return true }); err == nil {
		t.Fatal("empty name must fail")
	}
	if err := net.DefineRelation("Q", nil); err == nil {
		t.Fatal("nil membership must fail")
	}
	// The built-in homogeneous relation still works afterwards.
	res, err := net.Execute("SELECT A.temp FROM Sensors A ONCE", sensjoin.ExternalJoin())
	if err != nil {
		t.Fatal(err)
	}
	if res.MemberNodes != 50 {
		t.Fatalf("Sensors members = %d, want 50", res.MemberNodes)
	}
}

func TestHeterogeneousSelfAndCrossMix(t *testing.T) {
	// Three-way: one zone twice (self-join) plus the other zone.
	net, wCount, _ := setupZones(t, 120, 43)
	if wCount < 5 {
		t.Skip("too few west nodes")
	}
	const q = `
		SELECT A.temp, B.temp, C.temp FROM West A, West B, East C
		WHERE A.temp - B.temp > 3 AND abs(B.temp - C.temp) < 1 ONCE`
	truth, err := net.GroundTruth(q)
	if err != nil {
		t.Fatal(err)
	}
	res, err := net.Execute(q, sensjoin.SENSJoin())
	if err != nil {
		t.Fatal(err)
	}
	sameTable(t, truth, res, "three-way")
}
