package core

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"sensjoin/internal/compress"
	"sensjoin/internal/tabledigest"
	"sensjoin/internal/topology"
)

// testRunner builds a small reproducible deployment.
func testRunner(t *testing.T, nodes int, seed int64) *Runner {
	t.Helper()
	r, err := NewRunner(SetupConfig{Nodes: nodes, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// execSQL prepares src on r and binds it at time t: the one way the
// tests get an execution context for the network-free helpers
// (GroundTruth, Explain, Advise, buildPlan) or to call a Method directly.
func execSQL(r *Runner, src string, t float64) (*Exec, error) {
	p, err := r.Prepare(src)
	if err != nil {
		return nil, err
	}
	return r.Exec(p, t), nil
}

const q1 = `SELECT MIN(distance(A.x, A.y, B.x, B.y))
FROM Sensors A, Sensors B
WHERE A.temp - B.temp > 10.0 ONCE`

const q2 = `SELECT abs(A.hum - B.hum), abs(A.pres - B.pres)
FROM Sensors A, Sensors B
WHERE abs(A.temp - B.temp) < 0.3
AND distance(A.x, A.y, B.x, B.y) > 100 ONCE`

// qBand is a tunable band self-join used across tests.
func qBand(theta float64) string {
	return fmt.Sprintf(`SELECT A.temp, A.hum, B.temp, B.hum
FROM Sensors A, Sensors B
WHERE abs(A.temp - B.temp) < %g AND distance(A.x, A.y, B.x, B.y) > 50 ONCE`, theta)
}

// sameTable fails the test unless got is want's table, bit for bit with
// rows in any order, and says what differs, want's side first.
func sameTable(t *testing.T, want, got *Result, label string) {
	t.Helper()
	if d := tabledigest.Diff(want.Table(), got.Table()); d != "" {
		t.Fatalf("%s: %s", label, d)
	}
}

// sameOrder is sameTable for a test whose property includes row order
// (the same computation run twice): got's rows must also come in want's
// order.
func sameOrder(t *testing.T, want, got *Result, label string) {
	t.Helper()
	sameTable(t, want, got, label)
	if !rowsEqual(want.Rows, got.Rows) {
		t.Fatalf("%s: the same rows in a different order", label)
	}
}

// rowsEqual reports whether a and b are the same rows, bit for bit, in
// the same order.
func rowsEqual(a, b []Row) bool {
	return slices.EqualFunc(a, b, func(x, y Row) bool {
		return slices.EqualFunc(x, y, func(u, v float64) bool { return math.Float64bits(u) == math.Float64bits(v) })
	})
}

// The central correctness property: SENS-Join, every representation
// variant, and the external join all produce exactly the ground-truth
// result.
func TestMethodsAgreeWithGroundTruth(t *testing.T) {
	queries := map[string]string{
		"q1":       q1,
		"q2":       q2,
		"band-0.2": qBand(0.2),
		"band-2":   qBand(2),
	}
	methods := []Method{
		External{},
		NewSENSJoin(),
		&SENSJoin{Options: Options{Rep: RawRep{}}},
		&SENSJoin{Options: Options{Dmax: 60}},
		&SENSJoin{Options: Options{DisableTreecut: true}},
		&SENSJoin{Options: Options{DisableSelectiveForwarding: true}},
	}
	for name, src := range queries {
		r := testRunner(t, 120, 7)
		x, err := execSQL(r, src, 0)
		if err != nil {
			t.Fatal(err)
		}
		truth, err := GroundTruth(x)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range methods {
			res, err := r.Run(src, m, 0)
			if err != nil {
				t.Fatalf("%s / %s: %v", name, m.Name(), err)
			}
			sameTable(t, truth, res, name+"/"+m.Name())
		}
	}
}

func TestCompressedRepsAgree(t *testing.T) {
	r := testRunner(t, 80, 3)
	x, err := execSQL(r, qBand(0.5), 0)
	if err != nil {
		t.Fatal(err)
	}
	truth, err := GroundTruth(x)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []Method{
		&SENSJoin{Options: Options{Rep: CompressedRep{Codec: compress.Zlib{}}}},
		&SENSJoin{Options: Options{Rep: CompressedRep{Codec: compress.BWZ{}}}},
	} {
		res, err := r.Run(qBand(0.5), m, 0)
		if err != nil {
			t.Fatal(err)
		}
		sameTable(t, truth, res, m.Name())
	}
}

func TestAggregatesQ1(t *testing.T) {
	r := testRunner(t, 150, 11)
	res, err := r.Run(q1, NewSENSJoin(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) > 1 {
		t.Fatalf("aggregate query returned %d rows", len(res.Rows))
	}
	if len(res.Rows) == 1 {
		min := res.Rows[0][0]
		if min < 0 || min > 2000 {
			t.Fatalf("MIN(distance) = %g implausible", min)
		}
	}
}

func TestSENSJoinCheaperAtLowSelectivity(t *testing.T) {
	// The headline claim at small result fractions: SENS-Join transmits
	// far fewer packets than the external join.
	r := testRunner(t, 400, 5)
	src := qBand(0.15)
	if _, err := r.Run(src, External{}, 0); err != nil {
		t.Fatal(err)
	}
	ext := r.Stats.TotalTx(ExternalPhases...)
	r.Stats.Reset()
	res, err := r.Run(src, NewSENSJoin(), 0)
	if err != nil {
		t.Fatal(err)
	}
	sens := r.Stats.TotalTx(SENSPhases...)
	if res.Fraction() > 0.3 {
		t.Skipf("selectivity drifted: fraction=%.2f", res.Fraction())
	}
	if sens >= ext {
		t.Fatalf("SENS-Join (%d packets) not cheaper than external (%d) at fraction %.2f",
			sens, ext, res.Fraction())
	}
	t.Logf("external=%d sens=%d savings=%.0f%% fraction=%.2f",
		ext, sens, 100*(1-float64(sens)/float64(ext)), res.Fraction())
}

func TestExternalMoreExpensiveBreakdown(t *testing.T) {
	// Join-Attribute-Collection must be the dominant fixed cost and the
	// other phases must scale with the result fraction.
	r := testRunner(t, 300, 9)
	if _, err := r.Run(qBand(0.1), NewSENSJoin(), 0); err != nil {
		t.Fatal(err)
	}
	jaSmall := r.Stats.TotalTx(PhaseJACollect)
	finalSmall := r.Stats.TotalTx(PhaseFinalCollect)
	r.Stats.Reset()
	if _, err := r.Run(qBand(3.0), NewSENSJoin(), 0); err != nil {
		t.Fatal(err)
	}
	jaBig := r.Stats.TotalTx(PhaseJACollect)
	finalBig := r.Stats.TotalTx(PhaseFinalCollect)
	// Fig. 15: the collection step's cost is independent of the result
	// fraction (identical join attributes => identical keys collected).
	if jaSmall != jaBig {
		t.Fatalf("ja-collect cost varies with selectivity: %d vs %d", jaSmall, jaBig)
	}
	if finalBig <= finalSmall {
		t.Fatalf("final-collect did not grow with selectivity: %d vs %d", finalSmall, finalBig)
	}
}

func TestTreecutReducesCollectionPackets(t *testing.T) {
	r := testRunner(t, 300, 13)
	src := qBand(0.2)
	if _, err := r.Run(src, &SENSJoin{Options: Options{DisableTreecut: true}}, 0); err != nil {
		t.Fatal(err)
	}
	without := r.Stats.TotalTx(SENSPhases...)
	r.Stats.Reset()
	if _, err := r.Run(src, NewSENSJoin(), 0); err != nil {
		t.Fatal(err)
	}
	with := r.Stats.TotalTx(SENSPhases...)
	if with > without {
		t.Fatalf("treecut increased total cost: %d with vs %d without", with, without)
	}
	t.Logf("treecut: %d -> %d packets", without, with)
}

func TestSelectiveForwardingPrunesFilter(t *testing.T) {
	r := testRunner(t, 300, 17)
	src := qBand(0.1) // selective: few nodes join, many subtrees prune
	if _, err := r.Run(src, &SENSJoin{Options: Options{DisableSelectiveForwarding: true}}, 0); err != nil {
		t.Fatal(err)
	}
	without := r.Stats.TotalTx(PhaseFilterDissem)
	r.Stats.Reset()
	if _, err := r.Run(src, NewSENSJoin(), 0); err != nil {
		t.Fatal(err)
	}
	with := r.Stats.TotalTx(PhaseFilterDissem)
	if with >= without {
		t.Fatalf("selective forwarding did not reduce filter packets: %d vs %d", with, without)
	}
	t.Logf("filter dissemination: %d -> %d packets", without, with)
}

func TestQuadRepBeatsRawRep(t *testing.T) {
	r := testRunner(t, 400, 19)
	src := qBand(0.2)
	if _, err := r.Run(src, &SENSJoin{Options: Options{Rep: RawRep{}}}, 0); err != nil {
		t.Fatal(err)
	}
	raw := r.Stats.TotalTx(PhaseJACollect)
	r.Stats.Reset()
	if _, err := r.Run(src, NewSENSJoin(), 0); err != nil {
		t.Fatal(err)
	}
	quad := r.Stats.TotalTx(PhaseJACollect)
	if quad >= raw {
		t.Fatalf("quadtree (%d) not cheaper than raw (%d) in collection", quad, raw)
	}
	t.Logf("collection packets: raw=%d quad=%d", raw, quad)
}

func TestResponseTimeAtMostTwiceExternal(t *testing.T) {
	// Paper §VII: SENS-Join's response time is upper bounded by about
	// twice the external join's (pre-computation + final collection).
	r := testRunner(t, 200, 23)
	src := qBand(0.3)
	ext, err := r.Run(src, External{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	sens, err := r.Run(src, NewSENSJoin(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if sens.ResponseTime <= ext.ResponseTime {
		t.Fatalf("SENS-Join (%gs) should be slower than external (%gs)", sens.ResponseTime, ext.ResponseTime)
	}
	if sens.ResponseTime > 2.6*ext.ResponseTime {
		t.Fatalf("SENS-Join response time %gs exceeds ~2x external %gs", sens.ResponseTime, ext.ResponseTime)
	}
}

func TestFractionAndMembers(t *testing.T) {
	r := testRunner(t, 100, 29)
	res, err := r.Run(qBand(0.5), External{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.MemberNodes != 100 {
		t.Fatalf("homogeneous network: members = %d, want 100", res.MemberNodes)
	}
	f := res.Fraction()
	if f < 0 || f > 1 {
		t.Fatalf("fraction = %g out of range", f)
	}
	if math.IsNaN(f) {
		t.Fatal("fraction is NaN")
	}
}

func TestLocalPredicatesFilterMembership(t *testing.T) {
	r := testRunner(t, 100, 31)
	src := `SELECT A.temp, B.temp FROM Sensors A, Sensors B
		WHERE A.light > 400 AND B.light > 400 AND abs(A.temp - B.temp) < 1 ONCE`
	x, err := execSQL(r, src, 0)
	if err != nil {
		t.Fatal(err)
	}
	truth, err := GroundTruth(x)
	if err != nil {
		t.Fatal(err)
	}
	if truth.MemberNodes >= 100 {
		t.Skip("local predicate did not filter anything in this field")
	}
	res, err := r.Run(src, NewSENSJoin(), 0)
	if err != nil {
		t.Fatal(err)
	}
	sameTable(t, truth, res, "sens")
}

func TestThreeWayJoin(t *testing.T) {
	r := testRunner(t, 60, 37)
	src := `SELECT A.temp, B.temp, C.temp FROM Sensors A, Sensors B, Sensors C
		WHERE abs(A.temp - B.temp) < 0.2 AND abs(B.temp - C.temp) < 0.2
		AND distance(A.x, A.y, B.x, B.y) > 100 ONCE`
	x, err := execSQL(r, src, 0)
	if err != nil {
		t.Fatal(err)
	}
	truth, err := GroundTruth(x)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []Method{External{}, NewSENSJoin()} {
		res, err := r.Run(src, m, 0)
		if err != nil {
			t.Fatal(err)
		}
		sameTable(t, truth, res, m.Name())
	}
}

func TestSENSJoinRejectsSingleRelation(t *testing.T) {
	r := testRunner(t, 30, 41)
	if _, err := r.Run("SELECT A.temp FROM Sensors A ONCE", NewSENSJoin(), 0); err == nil {
		t.Fatal("single-relation query must be rejected by SENS-Join")
	}
}

func TestSENSJoinRejectsCrossJoinWithoutJoinAttrs(t *testing.T) {
	r := testRunner(t, 30, 43)
	if _, err := r.Run("SELECT A.temp, B.temp FROM Sensors A, Sensors B ONCE", NewSENSJoin(), 0); err == nil {
		t.Fatal("join-attribute-free query must be rejected")
	}
}

func TestExternalHandlesSingleRelation(t *testing.T) {
	r := testRunner(t, 50, 47)
	res, err := r.Run("SELECT A.temp FROM Sensors A WHERE A.temp > 0 ONCE", External{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) == 0 {
		t.Fatal("collection query returned nothing")
	}
}

func TestQueryDissemination(t *testing.T) {
	r := testRunner(t, 100, 53)
	x, err := execSQL(r, qBand(0.5), 0)
	if err != nil {
		t.Fatal(err)
	}
	DisseminateQuery(x)
	// Flooding: every node rebroadcasts exactly once.
	if got := r.Stats.TotalTx(PhaseQueryDissem); got < int64(r.Dep.N()) {
		t.Fatalf("flood transmissions = %d, want >= %d", got, r.Dep.N())
	}
	for i := 0; i < r.Dep.N(); i++ {
		p, _ := r.Stats.NodeTx(topology.NodeID(i), PhaseQueryDissem)
		if p == 0 {
			t.Fatalf("node %d never rebroadcast the query", i)
		}
	}
}

func TestStarExpansion(t *testing.T) {
	r := testRunner(t, 40, 59)
	res, err := r.Run("SELECT * FROM Sensors ONCE", External{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	// The standard schema has 6 attributes.
	if len(res.Columns) != 6 {
		t.Fatalf("SELECT * expanded to %d columns, want 6", len(res.Columns))
	}
	if len(res.Rows) != 40 {
		t.Fatalf("SELECT * returned %d rows, want 40", len(res.Rows))
	}
}

func TestDeterministicExecution(t *testing.T) {
	run := func() (int64, int) {
		r := testRunner(t, 150, 61)
		res, err := r.Run(qBand(0.4), NewSENSJoin(), 0)
		if err != nil {
			t.Fatal(err)
		}
		return r.Stats.TotalTx(SENSPhases...), len(res.Rows)
	}
	tx1, rows1 := run()
	tx2, rows2 := run()
	if tx1 != tx2 || rows1 != rows2 {
		t.Fatalf("non-deterministic: tx %d/%d rows %d/%d", tx1, tx2, rows1, rows2)
	}
}

func TestFourWayJoin(t *testing.T) {
	// Four aliases exercise relation-flag widths beyond the paper's
	// two-relation presentation (the flag prefix level gets fanout 16).
	r := testRunner(t, 40, 67)
	src := `SELECT A.temp, B.temp, C.temp, D.temp
		FROM Sensors A, Sensors B, Sensors C, Sensors D
		WHERE A.temp - B.temp > 2 AND abs(B.temp - C.temp) < 0.4
		AND C.temp - D.temp > 1 ONCE`
	x, err := execSQL(r, src, 0)
	if err != nil {
		t.Fatal(err)
	}
	truth, err := GroundTruth(x)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []Method{External{}, NewSENSJoin()} {
		res, err := r.Run(src, m, 0)
		if err != nil {
			t.Fatalf("%s: %v", m.Name(), err)
		}
		sameTable(t, truth, res, m.Name())
	}
}
