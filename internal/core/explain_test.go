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
		"[indexable: band on \"temp\"]",
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
	if !strings.Contains(out, "[indexable: difference on \"temp\"]") {
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
