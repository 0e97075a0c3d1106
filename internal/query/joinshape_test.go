package query

import (
	"fmt"
	"math"
	"testing"
)

// shapeOf parses a two-relation query with the given WHERE clause and
// classifies its join conditions.
func shapeOf(t *testing.T, where string) JoinShape {
	t.Helper()
	src := fmt.Sprintf("SELECT A.temp FROM S A, S B WHERE %s ONCE", where)
	q, err := Parse(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	a, err := Analyze(q)
	if err != nil {
		t.Fatal(err)
	}
	return ShapeOf(a.JoinConds)
}

func TestShapeOfBandForms(t *testing.T) {
	inf := math.Inf(1)
	cases := []struct {
		where  string
		sum    bool
		lo, hi float64
	}{
		{"A.temp - B.temp > 3", false, 3, inf},
		{"A.temp - B.temp >= 3", false, 3, inf},
		{"A.temp - B.temp < 3", false, -inf, 3},
		{"A.temp - B.temp = 3", false, 3, 3},
		{"3 > A.temp - B.temp", false, -inf, 3},
		{"A.temp - B.temp > 2 + 1", false, 3, inf},
		{"abs(A.temp - B.temp) < 0.5", false, -0.5, 0.5},
		{"abs(A.temp - B.temp) <= 0.5", false, -0.5, 0.5},
		{"A.temp < B.hum", false, -inf, 0},
		{"A.temp >= B.hum", false, 0, inf},
		{"A.temp + B.temp < 50", true, -inf, 50},
		{"abs(A.temp + B.temp) < 2", true, -2, 2},
	}
	for _, c := range cases {
		s := shapeOf(t, c.where)
		if len(s.Band) != 1 || len(s.Eq) != 0 || len(s.Residual) != 0 {
			t.Errorf("%q: got %d band, %d eq, %d residual; want exactly one band",
				c.where, len(s.Band), len(s.Eq), len(s.Residual))
			continue
		}
		b := s.Band[0]
		if b.Sum != c.sum || b.Lo != c.lo || b.Hi != c.hi {
			t.Errorf("%q: band sum=%t [%g, %g], want sum=%t [%g, %g]",
				c.where, b.Sum, b.Lo, b.Hi, c.sum, c.lo, c.hi)
		}
		if b.L.Rel == b.R.Rel || b.L.Rel < 0 || b.R.Rel < 0 {
			t.Errorf("%q: band rels %d/%d not cross-relation", c.where, b.L.Rel, b.R.Rel)
		}
	}
}

func TestShapeOfEquality(t *testing.T) {
	s := shapeOf(t, "A.temp = B.temp AND A.hum - B.hum > 1")
	if len(s.Eq) != 1 || len(s.Band) != 1 || len(s.Residual) != 0 {
		t.Fatalf("got %d eq, %d band, %d residual; want 1/1/0", len(s.Eq), len(s.Band), len(s.Residual))
	}
	eq := s.Eq[0]
	if eq.L.Name != "temp" || eq.R.Name != "temp" || eq.L.Rel == eq.R.Rel {
		t.Fatalf("eq = %+v", eq)
	}
	if s.Eq[0].Cond == s.Band[0].Cond {
		t.Fatal("eq and band claim the same conjunct")
	}
}

func TestShapeOfResidualForms(t *testing.T) {
	residuals := []string{
		"A.temp != B.temp",                   // no contiguous window
		"abs(A.temp - B.temp) > 1",           // anti-band
		"distance(A.x, A.y, B.x, B.y) > 100", // non-linear
		"(A.temp > B.temp OR A.hum < B.hum)", // disjunction
		"A.temp * 2 - B.temp > 1",            // scaled attribute
		"sqrt(A.temp) - B.temp < 1",          // function of attribute
		"abs(A.temp - B.temp) = 1",           // two-point set
	}
	for _, where := range residuals {
		s := shapeOf(t, where)
		if len(s.Residual) != 1 || len(s.Eq) != 0 || len(s.Band) != 0 {
			t.Errorf("%q: got %d eq, %d band, %d residual; want residual only",
				where, len(s.Eq), len(s.Band), len(s.Residual))
		}
	}
}

func TestShapeOfMixedConjuncts(t *testing.T) {
	s := shapeOf(t, "A.temp - B.temp > 2 AND distance(A.x, A.y, B.x, B.y) > 100 AND A.hum = B.hum")
	if len(s.Eq) != 1 || len(s.Band) != 1 || len(s.Residual) != 1 {
		t.Fatalf("got %d eq, %d band, %d residual; want 1/1/1", len(s.Eq), len(s.Band), len(s.Residual))
	}
	if !s.Indexable() {
		t.Fatal("mixed shape must be indexable")
	}
	if ShapeOf(nil).Indexable() {
		t.Fatal("empty shape must not be indexable")
	}
}

// A same-relation comparison (A.temp > A.hum would be a local
// predicate, but constructed condition lists can contain anything) must
// not classify as a band.
func TestShapeOfSameRelationStaysResidual(t *testing.T) {
	c, err := ParsePredicate("x - y > 1")
	if err != nil {
		t.Fatal(err)
	}
	// Unbound references have Rel == -1 on both sides.
	s := ShapeOf([]BoolExpr{c})
	if len(s.Residual) != 1 || s.Indexable() {
		t.Fatalf("unbound/same-rel condition classified as indexable: %+v", s)
	}
}
