package core

import (
	"testing"

	"sensjoin/internal/geom"
	"sensjoin/internal/topology"
)

// All related-work baselines must return exactly the oracle result.
func TestRelatedMethodsAgreeWithOracle(t *testing.T) {
	r := testRunner(t, 150, 401)
	for _, src := range []string{qBand(0.3), qBand(2), q1} {
		x, err := execSQL(r, src, 0)
		if err != nil {
			t.Fatal(err)
		}
		truth, err := GroundTruth(x)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range []Method{Mediated{}, SemiJoin{}, SemiJoin{FilterSide: 1}} {
			res, err := r.Run(src, m, 0)
			if err != nil {
				t.Fatalf("%s: %v", m.Name(), err)
			}
			sameTable(t, truth, res, m.Name())
		}
	}
}

// The paper's claim (§VI): in the general setting the external join
// outperforms the specialized methods — the mediator sits inside the
// network, so results must travel extra hops, and the semi-join floods
// the whole network with the filter relation's values.
func TestSpecializedMethodsLoseInGeneralSetting(t *testing.T) {
	r := testRunner(t, 300, 403)
	src := qBand(0.3)
	ext, _, err := runPackets(r, src, External{})
	if err != nil {
		t.Fatal(err)
	}
	med, _, err := runPackets(r, src, Mediated{})
	if err != nil {
		t.Fatal(err)
	}
	semi, _, err := runPackets(r, src, SemiJoin{})
	if err != nil {
		t.Fatal(err)
	}
	if med <= ext {
		t.Fatalf("mediated (%d) should lose to external (%d) on arbitrary placements", med, ext)
	}
	if semi <= ext {
		t.Fatalf("semi-join (%d) should lose to external (%d) on arbitrary placements", semi, ext)
	}
	t.Logf("general setting: external=%d mediated=%d semi=%d", ext, med, semi)
}

// ...and the niche where the mediated join wins: both relations confined
// to two small adjacent regions far from the base station, with a highly
// selective join. The result (few rows) travels to the base station
// instead of all the tuples.
func TestMediatedWinsInItsNiche(t *testing.T) {
	r := testRunner(t, 300, 405)
	// Members: only nodes in a small far-corner patch.
	far := r.Dep.Area.Lerp(0.85, 0.85)
	r.Member = func(id topology.NodeID, rel string) bool {
		return geom.Dist(r.Dep.Pos[id], far) < 120
	}
	src := `SELECT A.temp, B.temp FROM Sensors A, Sensors B
		WHERE A.temp - B.temp > 7 ONCE` // highly selective
	x, err := execSQL(r, src, 0)
	if err != nil {
		t.Fatal(err)
	}
	truth, err := GroundTruth(x)
	if err != nil {
		t.Fatal(err)
	}
	if truth.MemberNodes < 5 {
		t.Skip("degenerate patch")
	}
	if len(truth.Rows) > truth.MemberNodes {
		t.Skipf("join not selective enough: %d rows", len(truth.Rows))
	}
	ext, _, err := runPackets(r, src, External{})
	if err != nil {
		t.Fatal(err)
	}
	med, res, err := runPackets(r, src, Mediated{})
	if err != nil {
		t.Fatal(err)
	}
	sameTable(t, truth, res, "mediated-niche")
	if med >= ext {
		t.Fatalf("mediated (%d) should beat external (%d) on clustered members with a selective join", med, ext)
	}
	t.Logf("niche setting: external=%d mediated=%d", ext, med)
}

func runPackets(r *Runner, src string, m Method) (int64, *Result, error) {
	r.Stats.Reset()
	res, err := r.Run(src, m, 0)
	if err != nil {
		return 0, nil, err
	}
	return r.Stats.TotalTx(m.Phases()...), res, nil
}

func TestSemiJoinRejectsThreeWay(t *testing.T) {
	r := testRunner(t, 40, 407)
	src := `SELECT A.temp FROM Sensors A, Sensors B, Sensors C
		WHERE abs(A.temp - B.temp) < 1 AND abs(B.temp - C.temp) < 1 ONCE`
	if _, err := r.Run(src, SemiJoin{}, 0); err == nil {
		t.Fatal("semi-join must reject three-way joins")
	}
}

func TestMediatedFailureDetection(t *testing.T) {
	r := testRunner(t, 150, 409)
	// Fail a link near the mediator region: the mediated join must
	// report incompleteness, not silently drop tuples.
	child, parent := failLink(r)
	r.Net.LinkDown(child, parent)
	// The mediated tree may route around this particular link; fail all
	// of the victim's links to force loss.
	for _, nb := range r.Dep.Neighbors[child] {
		r.Net.LinkDown(child, nb)
	}
	res, err := r.Run(qBand(0.5), Mediated{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Complete {
		t.Fatal("mediated join missed the lost node")
	}
}

func TestShortestPath(t *testing.T) {
	r := testRunner(t, 100, 411)
	x, err := execSQL(r, qBand(0.5), 0)
	if err != nil {
		t.Fatal(err)
	}
	path, err := shortestPath(x, 50, topology.BaseStation)
	if err != nil {
		t.Fatal(err)
	}
	if path[0] != 50 || path[len(path)-1] != topology.BaseStation {
		t.Fatalf("path endpoints wrong: %v", path)
	}
	// Consecutive hops must be live neighbors, and the length must equal
	// the BFS depth of node 50 plus one.
	for i := 0; i+1 < len(path); i++ {
		if !r.Net.LinkOK(path[i], path[i+1]) {
			t.Fatalf("hop %d-%d not a live link", path[i], path[i+1])
		}
	}
	if len(path) != r.Tree.Depth[50]+1 {
		t.Fatalf("path length %d, BFS depth %d", len(path), r.Tree.Depth[50])
	}
	// Unreachable target errors.
	for _, nb := range r.Dep.Neighbors[60] {
		r.Net.LinkDown(60, nb)
	}
	if _, err := shortestPath(x, 60, topology.BaseStation); err == nil {
		t.Fatal("partitioned path should fail")
	}
}

func TestMemberCentroidNode(t *testing.T) {
	r := testRunner(t, 100, 413)
	// Restrict members to a corner; the centroid node must be there.
	corner := r.Dep.Area.Lerp(0.9, 0.9)
	r.Member = func(id topology.NodeID, rel string) bool {
		return geom.Dist(r.Dep.Pos[id], corner) < 150
	}
	x, err := execSQL(r, qBand(0.5), 0)
	if err != nil {
		t.Fatal(err)
	}
	p := buildPlan(x)
	if p.members == 0 {
		t.Skip("no members in the corner")
	}
	med := memberCentroidNode(x, p)
	if geom.Dist(r.Dep.Pos[med], corner) > 200 {
		t.Fatalf("mediator %d at %+v, far from the member region", med, r.Dep.Pos[med])
	}
}
