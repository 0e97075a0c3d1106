package query

import (
	"reflect"
	"testing"
)

func TestAnalyzeQ1(t *testing.T) {
	q, err := Parse(q1Src)
	if err != nil {
		t.Fatal(err)
	}
	a, err := Analyze(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.JoinConds) != 1 {
		t.Fatalf("JoinConds = %v", a.JoinConds)
	}
	// Join attributes of Q1: temp only (the distance is in SELECT, not
	// in the join condition).
	if !reflect.DeepEqual(a.JoinAttrs[0], []string{"temp"}) {
		t.Fatalf("JoinAttrs[0] = %v, want [temp]", a.JoinAttrs[0])
	}
	if !reflect.DeepEqual(a.SelectAttrs[0], []string{"x", "y"}) {
		t.Fatalf("SelectAttrs[0] = %v, want [x y]", a.SelectAttrs[0])
	}
	// Shipped: temp + x + y = 3 attributes. This is the paper's "33%
	// join attributes" characterization of Q1 (1 of 3).
	if !reflect.DeepEqual(a.ShippedAttrs[0], []string{"temp", "x", "y"}) {
		t.Fatalf("ShippedAttrs[0] = %v", a.ShippedAttrs[0])
	}
	if len(a.LocalPreds[0])+len(a.LocalPreds[1]) != 0 {
		t.Fatal("Q1 has no local predicates")
	}
}

func TestAnalyzeQ2(t *testing.T) {
	q, err := Parse(q2Src)
	if err != nil {
		t.Fatal(err)
	}
	a, err := Analyze(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.JoinConds) != 2 {
		t.Fatalf("JoinConds count = %d, want 2", len(a.JoinConds))
	}
	// Join attributes of Q2: temp, x, y; shipped adds hum, pres => 3 of
	// 5 = the paper's "60% join attributes" setting.
	if !reflect.DeepEqual(a.JoinAttrs[0], []string{"temp", "x", "y"}) {
		t.Fatalf("JoinAttrs[0] = %v", a.JoinAttrs[0])
	}
	if !reflect.DeepEqual(a.ShippedAttrs[0], []string{"hum", "pres", "temp", "x", "y"}) {
		t.Fatalf("ShippedAttrs[0] = %v", a.ShippedAttrs[0])
	}
}

func TestAnalyzeLocalAndConstPreds(t *testing.T) {
	q, err := Parse(`SELECT A.temp FROM Sensors A, Sensors B
		WHERE A.light > 100 AND B.light > 100 AND A.temp = B.temp AND 1 < 2 ONCE`)
	if err != nil {
		t.Fatal(err)
	}
	a, err := Analyze(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.LocalPreds[0]) != 1 || len(a.LocalPreds[1]) != 1 {
		t.Fatalf("local preds = %v / %v", a.LocalPreds[0], a.LocalPreds[1])
	}
	if len(a.JoinConds) != 1 {
		t.Fatalf("join conds = %v", a.JoinConds)
	}
	if len(a.ConstPreds) != 1 {
		t.Fatalf("const preds = %v", a.ConstPreds)
	}
	// Local predicate attributes do not appear in JoinAttrs.
	if !reflect.DeepEqual(a.JoinAttrs[0], []string{"temp"}) {
		t.Fatalf("JoinAttrs[0] = %v", a.JoinAttrs[0])
	}
}

func TestAnalyzeNoWhere(t *testing.T) {
	q, err := Parse("SELECT A.temp FROM Sensors A ONCE")
	if err != nil {
		t.Fatal(err)
	}
	a, err := Analyze(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.JoinConds) != 0 {
		t.Fatal("no WHERE means no join conditions")
	}
	if a.LocalPredicate(0) != nil {
		t.Fatal("LocalPredicate should be nil")
	}
}

func TestConjunctsAndAndAll(t *testing.T) {
	p, err := ParsePredicate("A.a > 1 AND (A.b < 2 AND A.c = 3)")
	if err != nil {
		t.Fatal(err)
	}
	cs := Conjuncts(p)
	if len(cs) != 3 {
		t.Fatalf("Conjuncts = %d, want 3", len(cs))
	}
	rebuilt := AndAll(cs)
	if rebuilt.String() == "" {
		t.Fatal("AndAll produced empty")
	}
	if len(Conjuncts(rebuilt)) != 3 {
		t.Fatal("AndAll must preserve conjunct count")
	}
	if AndAll(nil) != nil {
		t.Fatal("AndAll(nil) should be nil")
	}
	if Conjuncts(nil) != nil {
		t.Fatal("Conjuncts(nil) should be nil")
	}
}

func TestAnalyzeThreeWayJoin(t *testing.T) {
	q, err := Parse(`SELECT A.temp, B.temp, C.temp FROM S A, S B, S C
		WHERE abs(A.temp - B.temp) < 1 AND abs(B.temp - C.temp) < 1 ONCE`)
	if err != nil {
		t.Fatal(err)
	}
	a, err := Analyze(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.JoinConds) != 2 {
		t.Fatalf("JoinConds = %d", len(a.JoinConds))
	}
	for i := 0; i < 3; i++ {
		if !reflect.DeepEqual(a.JoinAttrs[i], []string{"temp"}) {
			t.Fatalf("JoinAttrs[%d] = %v", i, a.JoinAttrs[i])
		}
	}
}

func TestAnalyzeOrAcrossRelationsIsJoinCond(t *testing.T) {
	// A disjunction spanning two relations cannot be split; it is a join
	// condition as a whole.
	q, err := Parse("SELECT A.a FROM S A, S B WHERE A.a > 1 OR B.b > 1 ONCE")
	if err != nil {
		t.Fatal(err)
	}
	a, err := Analyze(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.JoinConds) != 1 || len(a.LocalPreds[0]) != 0 {
		t.Fatalf("OR across relations misclassified: join=%v local=%v", a.JoinConds, a.LocalPreds)
	}
}
