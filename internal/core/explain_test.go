package core

import (
	"strings"
	"testing"
)

func TestExplainQ2Style(t *testing.T) {
	r := testRunner(t, 80, 501)
	x, err := execSQL(r, qBand(0.3), 0)
	if err != nil {
		t.Fatal(err)
	}
	out, err := Explain(x)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"relations (2)",
		"join attrs: [temp x y]",
		"join conditions (2)",
		"abs((A.temp - B.temp)) < 0.3  [band A.temp - B.temp ∈ [-0.3, 0.3]]",
		"distance(A.x, A.y, B.x, B.y) > 50  [residual]",
		"quantization grid",
		"quadtree level schedule",
		"join filter",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("Explain missing %q:\n%s", want, out)
		}
	}
}

func TestExplainLocalPredicates(t *testing.T) {
	r := testRunner(t, 60, 503)
	x, err := execSQL(r, `SELECT A.temp, B.temp FROM Sensors A, Sensors B
		WHERE A.light > 100 AND A.temp - B.temp > 3 ONCE`, 0)
	if err != nil {
		t.Fatal(err)
	}
	out, err := Explain(x)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "local predicate: A.light > 100") {
		t.Fatalf("local predicate missing:\n%s", out)
	}
	if !strings.Contains(out, "[band A.temp - B.temp ∈ [3, +Inf]]") {
		t.Fatalf("difference index missing:\n%s", out)
	}
}

func TestExplainNoJoinAttrs(t *testing.T) {
	r := testRunner(t, 40, 505)
	x, err := execSQL(r, "SELECT A.temp, B.temp FROM Sensors A, Sensors B ONCE", 0)
	if err != nil {
		t.Fatal(err)
	}
	out, err := Explain(x)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "SENS-Join not applicable") {
		t.Fatalf("missing inapplicability note:\n%s", out)
	}
}

// Every conjunct of any join is annotated with the class the planner
// gives it, for two relations and for three.
func TestExplainAnnotatesEveryConjunct(t *testing.T) {
	r := testRunner(t, 60, 507)
	for _, c := range []struct {
		src  string
		want []string
	}{
		{
			`SELECT A.temp, B.hum FROM Sensors A, Sensors B
			WHERE A.temp = B.temp AND A.temp + B.hum < 50 AND (A.hum > B.hum OR A.light < B.light) ONCE`,
			[]string{
				"A.temp = B.temp  [eq]",
				"(A.temp + B.hum) < 50  [sum band A.temp + B.hum ∈ [-Inf, 50]]",
				"(A.hum > B.hum OR A.light < B.light)  [residual]",
			},
		},
		{
			`SELECT A.temp, B.temp, C.temp FROM Sensors A, Sensors B, Sensors C
			WHERE A.temp - B.temp > 3 AND abs(B.temp - C.temp) < 0.2 AND A.light < C.light ONCE`,
			[]string{
				"(A.temp - B.temp) > 3  [band A.temp - B.temp ∈ [3, +Inf]]",
				"abs((B.temp - C.temp)) < 0.2  [band B.temp - C.temp ∈ [-0.2, 0.2]]",
				"A.light < C.light  [band A.light - C.light ∈ [-Inf, 0]]",
			},
		},
	} {
		x, err := execSQL(r, c.src, 0)
		if err != nil {
			t.Fatal(err)
		}
		out, err := Explain(x)
		if err != nil {
			t.Fatal(err)
		}
		for _, want := range c.want {
			if !strings.Contains(out, "  "+want+"\n") {
				t.Errorf("Explain missing %q:\n%s", want, out)
			}
		}
	}
}
