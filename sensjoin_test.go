package sensjoin_test

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"sensjoin"
	"sensjoin/internal/tabledigest"
)

// sameTable fails the test unless got is the oracle's table: the same
// columns, counts and completeness, and the same rows bit for bit in any
// order.
func sameTable(t *testing.T, truth, got *sensjoin.Result, label string) {
	t.Helper()
	table := func(r *sensjoin.Result) tabledigest.Table[[]float64] {
		return tabledigest.Table[[]float64]{Columns: r.Columns, Rows: r.Rows,
			Contributing: r.ContributingNodes, Members: r.MemberNodes, Complete: r.Complete}
	}
	if d := tabledigest.Diff(table(truth), table(got)); d != "" {
		t.Fatalf("%s: oracle vs result: %s", label, d)
	}
}

func testNet(t *testing.T, nodes int, seed int64) *sensjoin.Network {
	t.Helper()
	net, err := sensjoin.NewNetwork(sensjoin.Config{Nodes: nodes, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return net
}

const apiQuery = `
	SELECT A.temp, B.temp, distance(A.x, A.y, B.x, B.y)
	FROM Sensors A, Sensors B
	WHERE A.temp - B.temp > 5.0 ONCE`

func TestNewNetworkValidation(t *testing.T) {
	if _, err := sensjoin.NewNetwork(sensjoin.Config{Nodes: 0}); err == nil {
		t.Fatal("zero nodes must fail")
	}
	net := testNet(t, 150, 3)
	if net.Nodes() != 150 {
		t.Fatalf("Nodes = %d", net.Nodes())
	}
	if net.Area().Width() <= 0 || net.Area().Height() <= 0 {
		t.Fatal("degenerate area")
	}
	if net.TreeDepth() < 2 {
		t.Fatalf("tree depth %d suspicious", net.TreeDepth())
	}
	if d := net.AvgDegree(); d < 4 || d > 20 {
		t.Fatalf("avg degree %g out of plausible band", d)
	}
}

func TestExecuteMatchesGroundTruth(t *testing.T) {
	net := testNet(t, 150, 5)
	truth, err := net.GroundTruth(apiQuery)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []sensjoin.Method{
		sensjoin.SENSJoin(),
		sensjoin.ExternalJoin(),
		sensjoin.SENSJoinNoQuad(),
	} {
		res, err := net.Execute(apiQuery, m)
		if err != nil {
			t.Fatalf("%s: %v", m.Name(), err)
		}
		sameTable(t, truth, res, m.Name())
	}
}

// Explain checks the query against the catalog before it plans anything.
func TestExplainRejectsBadQueries(t *testing.T) {
	net := testNet(t, 50, 7)
	if plan, err := net.Explain(apiQuery); err != nil || !strings.Contains(plan, "join conditions (1)") {
		t.Fatalf("Explain = %v\n%s", err, plan)
	}
	if _, err := net.Explain("SELECT garbage FROM"); err == nil {
		t.Fatal("bad syntax must fail")
	}
	if _, err := net.Explain("SELECT A.temp FROM Unknown A ONCE"); err == nil {
		t.Fatal("unknown relation must fail")
	}
	if net.TotalPackets(sensjoin.ExternalJoin()) != 0 {
		t.Fatal("Explain transmitted")
	}
}

// A join whose quantization grid cannot be built — more than 8 relations,
// or a key wider than 64 bits — fails Explain with the grid's own
// message, before anything runs.
func TestExplainReportsGridErrors(t *testing.T) {
	// A 40 km square makes x and y 16 bits each: with the four other
	// attributes and two flag bits, 68 bits.
	net, err := sensjoin.NewNetwork(sensjoin.Config{Nodes: 30, Seed: 7, AreaSideM: 40000, RangeM: 60000})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct{ src, want string }{
		{nineWayJoin, "zorder: flag bits 9 out of range [1, 8]"},
		{`SELECT A.temp FROM Sensors A, Sensors B WHERE A.temp = B.temp AND A.hum = B.hum AND A.pres = B.pres
			AND A.light = B.light AND A.x = B.x AND A.y = B.y ONCE`, "zorder: 68 total bits exceed the 64-bit key budget"},
	} {
		if _, err := net.Explain(c.src); err == nil || err.Error() != c.want {
			t.Errorf("Explain = %v, want %q", err, c.want)
		}
	}
}

// nineWayJoin is an equi-join chain over nine relations, one more than a
// key's relation flags can name.
const nineWayJoin = `SELECT A.temp FROM Sensors A, Sensors B, Sensors C, Sensors D, Sensors E, Sensors F, Sensors G, Sensors H, Sensors I
	WHERE A.temp = B.temp AND B.temp = C.temp AND C.temp = D.temp AND D.temp = E.temp AND E.temp = F.temp
	AND F.temp = G.temp AND G.temp = H.temp AND H.temp = I.temp ONCE`

func TestStatsAccessors(t *testing.T) {
	net := testNet(t, 150, 9)
	if _, err := net.Execute(apiQuery, sensjoin.SENSJoin()); err != nil {
		t.Fatal(err)
	}
	total := net.TotalPackets(sensjoin.SENSJoin())
	if total <= 0 {
		t.Fatal("no packets counted")
	}
	node, load := net.MaxLoadedNode(sensjoin.SENSJoin())
	if node <= 0 || node > 150 || load <= 0 || load > total {
		t.Fatalf("MaxLoadedNode = %d/%d of %d packets", node, load, total)
	}
	if net.TotalEnergy() <= 0 {
		t.Fatal("no energy accounted")
	}
	if !strings.Contains(net.PhaseTable(), "ja-collect") {
		t.Fatalf("PhaseTable missing phases:\n%s", net.PhaseTable())
	}
	net.ResetStats()
	if net.TotalPackets(sensjoin.SENSJoin()) != 0 {
		t.Fatal("ResetStats did not clear")
	}
}

func TestFailureInjectionAndRecovery(t *testing.T) {
	net := testNet(t, 150, 11)
	victim := 23
	parent := net.RoutingParent(victim)
	if parent < 0 {
		t.Skip("node 23 unreachable in this draw")
	}
	if err := net.FailLink(victim, parent); err != nil {
		t.Fatal(err)
	}
	res, err := net.Execute(apiQuery, sensjoin.SENSJoin())
	if err != nil {
		t.Fatal(err)
	}
	if res.Complete {
		t.Fatal("loss not detected")
	}
	rec, err := net.ExecuteWithRecovery(apiQuery, sensjoin.SENSJoin(), 3)
	if err != nil {
		t.Fatal(err)
	}
	if !rec.Complete || rec.Executions < 2 {
		t.Fatalf("recovery failed: complete=%v executions=%d", rec.Complete, rec.Executions)
	}
	if err := net.RestoreLink(victim, parent); err != nil {
		t.Fatal(err)
	}
	net.RepairRouting()
}

// The node-id methods refuse an id that is not a node of the network
// instead of indexing with it, and the base station cannot be killed.
func TestNodeIDsOutsideTheNetwork(t *testing.T) {
	net := testNet(t, 50, 11)
	for _, id := range []int{-1, 51, 500} {
		if err := net.KillNode(id); err == nil {
			t.Errorf("KillNode(%d) on a 50-node network: no error", id)
		}
		if err := net.FailLink(id, 1); err == nil {
			t.Errorf("FailLink(%d, 1): no error", id)
		}
		if err := net.FailLink(1, id); err == nil {
			t.Errorf("FailLink(1, %d): no error", id)
		}
		if err := net.RestoreLink(id, 1); err == nil {
			t.Errorf("RestoreLink(%d, 1): no error", id)
		}
		if p := net.RoutingParent(id); p != -1 {
			t.Errorf("RoutingParent(%d) = %d, want -1", id, p)
		}
	}
	if err := net.KillNode(0); err == nil {
		t.Error("KillNode(0) killed the base station")
	}
	if err := net.KillNode(50); err != nil {
		t.Errorf("KillNode(50), the last sensor: %v", err)
	}
}

// Monitor moves the clock on by the period after each round, and the
// clock carries over from one call to the next: three one-round calls see
// the snapshots of one three-round call, and the fields drift between them.
func TestMonitorAdvancesClock(t *testing.T) {
	const q = `SELECT COUNT(A.temp) FROM Sensors A, Sensors B
		WHERE A.temp - B.temp > 4 SAMPLE PERIOD 120`
	rounds, err := testNet(t, 100, 13).Monitor(q, sensjoin.SENSJoin(), 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(rounds) != 3 {
		t.Fatalf("rounds = %d", len(rounds))
	}
	if rounds[0].Rows[0][0] == rounds[2].Rows[0][0] {
		t.Fatalf("rounds 1 and 3 both count %g: the fields did not drift", rounds[0].Rows[0][0])
	}
	net := testNet(t, 100, 13)
	for i, want := range rounds {
		got, err := net.Monitor(q, sensjoin.SENSJoin(), 1)
		if err != nil {
			t.Fatal(err)
		}
		sameTable(t, want, got[0], fmt.Sprintf("round %d", i+1))
	}
	if _, err := net.Monitor("SELECT A.temp FROM Sensors A ONCE", sensjoin.SENSJoin(), 1); err == nil {
		t.Fatal("Monitor accepted a ONCE query")
	}
}

func TestFractionHelper(t *testing.T) {
	r := &sensjoin.Result{ContributingNodes: 25, MemberNodes: 100}
	if r.Fraction() != 0.25 {
		t.Fatalf("Fraction = %g", r.Fraction())
	}
	empty := &sensjoin.Result{}
	if empty.Fraction() != 0 || math.IsNaN(empty.Fraction()) {
		t.Fatal("empty fraction should be 0")
	}
}

func TestDisseminateQuery(t *testing.T) {
	net := testNet(t, 80, 19)
	if err := net.DisseminateQuery(apiQuery); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(net.PhaseTable(), "query-dissem") {
		t.Fatal("flood not accounted")
	}
}

func TestCustomPacketSize(t *testing.T) {
	small, err := sensjoin.NewNetwork(sensjoin.Config{Nodes: 150, Seed: 21, MaxPacket: 48})
	if err != nil {
		t.Fatal(err)
	}
	big, err := sensjoin.NewNetwork(sensjoin.Config{Nodes: 150, Seed: 21, MaxPacket: 124})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := small.Execute(apiQuery, sensjoin.ExternalJoin()); err != nil {
		t.Fatal(err)
	}
	if _, err := big.Execute(apiQuery, sensjoin.ExternalJoin()); err != nil {
		t.Fatal(err)
	}
	if big.TotalPackets(sensjoin.ExternalJoin()) >= small.TotalPackets(sensjoin.ExternalJoin()) {
		t.Fatal("larger packets should reduce packet count")
	}
}

func TestBaseAtCenterShortensTree(t *testing.T) {
	corner := testNet(t, 400, 23)
	center, err := sensjoin.NewNetwork(sensjoin.Config{Nodes: 400, Seed: 23, BaseAtCenter: true})
	if err != nil {
		t.Fatal(err)
	}
	if center.TreeDepth() >= corner.TreeDepth() {
		t.Fatalf("center depth %d should be below corner depth %d",
			center.TreeDepth(), corner.TreeDepth())
	}
}
