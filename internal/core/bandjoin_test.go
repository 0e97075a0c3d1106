package core

import (
	"fmt"
	"reflect"
	"testing"

	"sensjoin/internal/query"
	"sensjoin/internal/zorder"
)

// filterKeysOf runs the base-station filter computation directly on the
// runner's snapshot, with or without the band index.
func filterKeysOf(t *testing.T, r *Runner, src string, useIndex bool) []zorder.Key {
	t.Helper()
	x, err := execSQL(r, src, 0)
	if err != nil {
		t.Fatal(err)
	}
	p, err := buildPlan(x)
	if err != nil {
		t.Fatal(err)
	}
	var keys []zorder.Key
	for _, nd := range p.nodes {
		if nd.flags != 0 {
			keys = append(keys, nd.key)
		}
	}
	return computeFilter(p, keys, useIndex)
}

// The fast path must return exactly the generic filter on every query
// shape it recognizes.
func TestBandFilterEqualsGeneric(t *testing.T) {
	r := testRunner(t, 250, 7)
	queries := []string{
		// Difference conditions in all orientations.
		"A.temp - B.temp > 3",
		"A.temp - B.temp >= 3",
		"B.temp - A.temp > 2.5",
		"A.temp - B.temp < -4", // == B - A > 4
		"A.temp - B.temp <= -4",
		"3 < A.temp - B.temp", // constant on the left
		// Band conditions.
		"abs(A.temp - B.temp) < 0.2",
		"abs(A.temp - B.temp) <= 0.05",
		"abs(A.temp - B.temp) < 0.2 AND distance(A.x, A.y, B.x, B.y) > 100",
		// Index condition plus extra conditions that must be re-checked.
		"A.temp - B.temp > 2 AND A.hum - B.hum > 1",
		"A.temp - B.temp > 100",  // empty filter
		"A.temp - B.temp > -100", // everything matches
	}
	for _, cond := range queries {
		src := fmt.Sprintf("SELECT A.temp, B.temp, A.hum, B.hum FROM Sensors A, Sensors B WHERE %s ONCE", cond)
		fast := filterKeysOf(t, r, src, true)
		slow := filterKeysOf(t, r, src, false)
		if !reflect.DeepEqual(fast, slow) {
			t.Fatalf("filter mismatch for %q: fast %d keys, generic %d keys", cond, len(fast), len(slow))
		}
	}
}

func TestBandDetectRecognizesShapes(t *testing.T) {
	r := testRunner(t, 30, 9)
	x, err := execSQL(r, "SELECT A.temp, B.temp FROM Sensors A, Sensors B WHERE A.temp - B.temp > 3 ONCE", 0)
	if err != nil {
		t.Fatal(err)
	}
	p, err := buildPlan(x)
	if err != nil {
		t.Fatal(err)
	}
	bc, ok := detectBandCond(p, x.Analysis.JoinConds[0])
	if !ok {
		t.Fatal("difference condition not recognized")
	}
	if bc.kind != bandDiffGT || bc.c != 3 || bc.left != 0 || bc.right != 1 {
		t.Fatalf("detected %+v", bc)
	}
}

func TestBandDetectRejectsNonIndexable(t *testing.T) {
	r := testRunner(t, 30, 11)
	cases := []string{
		"A.temp * B.temp > 3",                // not a difference
		"A.temp - A.hum > 3",                 // same alias twice
		"A.temp - B.hum > 3",                 // different attributes
		"abs(A.temp - B.temp) > 3",           // abs with > is not a band
		"A.temp - B.temp > B.hum",            // non-constant bound
		"distance(A.x, A.y, B.x, B.y) > 100", // not a difference at all
	}
	for _, cond := range cases {
		src := fmt.Sprintf("SELECT A.temp, B.temp FROM Sensors A, Sensors B WHERE %s AND A.temp - B.temp + A.hum > -1e9 ONCE", cond)
		x, err := execSQL(r, src, 0)
		if err != nil {
			t.Fatalf("%q: %v", cond, err)
		}
		p, err := buildPlan(x)
		if err != nil {
			t.Fatal(err)
		}
		if bc, ok := detectBandCond(p, x.Analysis.JoinConds[0]); ok {
			t.Fatalf("%q wrongly recognized as %+v", cond, bc)
		}
	}
}

func TestFlipCmp(t *testing.T) {
	pairs := map[query.CmpOp]query.CmpOp{
		query.CmpLT: query.CmpGT,
		query.CmpGT: query.CmpLT,
		query.CmpLE: query.CmpGE,
		query.CmpGE: query.CmpLE,
		query.CmpEQ: query.CmpEQ,
	}
	for in, want := range pairs {
		if got := flipCmp(in); got != want {
			t.Fatalf("flipCmp(%v) = %v", in, got)
		}
	}
}

// End-to-end: the engine with and without the band index returns the
// same result and the same packet counts (the filter is identical, so
// the protocol behaves identically).
func TestBandIndexTransparentToProtocol(t *testing.T) {
	r := testRunner(t, 200, 13)
	src := qBand(0.3)
	res1, err := r.Run(src, NewSENSJoin(), 0)
	if err != nil {
		t.Fatal(err)
	}
	tx1 := r.Stats.TotalTx(SENSPhases...)
	r.Stats.Reset()
	res2, err := r.Run(src, &SENSJoin{Options: Options{DisableBandIndex: true}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	tx2 := r.Stats.TotalTx(SENSPhases...)
	sameRows(t, res1.Rows, res2.Rows, "indexed", "generic")
	if tx1 != tx2 {
		t.Fatalf("packet counts differ: %d vs %d", tx1, tx2)
	}
}

func BenchmarkFilterGeneric(b *testing.B) {
	benchFilter(b, false)
}

func BenchmarkFilterBandIndexed(b *testing.B) {
	benchFilter(b, true)
}

func benchFilter(b *testing.B, useIndex bool) {
	r, err := NewRunner(SetupConfig{Nodes: 800, Seed: 3})
	if err != nil {
		b.Fatal(err)
	}
	x, err := execSQL(r, "SELECT A.temp, B.temp FROM Sensors A, Sensors B WHERE abs(A.temp - B.temp) < 0.2 AND distance(A.x, A.y, B.x, B.y) > 100 ONCE", 0)
	if err != nil {
		b.Fatal(err)
	}
	p, err := buildPlan(x)
	if err != nil {
		b.Fatal(err)
	}
	var keys []zorder.Key
	for _, nd := range p.nodes {
		if nd.flags != 0 {
			keys = append(keys, nd.key)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		computeFilter(p, keys, useIndex)
	}
}

func TestBandDetectAfterConstantFolding(t *testing.T) {
	r := testRunner(t, 30, 15)
	x, err := execSQL(r, "SELECT A.temp, B.temp FROM Sensors A, Sensors B WHERE A.temp - B.temp > 2 + 1 ONCE", 0)
	if err != nil {
		t.Fatal(err)
	}
	p, err := buildPlan(x)
	if err != nil {
		t.Fatal(err)
	}
	bc, ok := detectBandCond(p, x.Analysis.JoinConds[0])
	if !ok {
		t.Fatal("folded difference condition not recognized")
	}
	if bc.c != 3 {
		t.Fatalf("threshold = %g, want 3", bc.c)
	}
}
