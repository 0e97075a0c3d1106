package core

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// randomQuery generates a random two-relation join from a small grammar:
// 1-3 join conditions (difference, band, distance, attribute equality),
// optional local predicates, and a random SELECT list. It exercises the
// "any number and any kind of join conditions" requirement end to end.
func randomQuery(rng *rand.Rand) string {
	attrs := []string{"temp", "hum", "pres", "light"}
	pick := func() string { return attrs[rng.Intn(len(attrs))] }

	var conds []string
	nConds := 1 + rng.Intn(3)
	for i := 0; i < nConds; i++ {
		switch rng.Intn(5) {
		case 0: // difference
			conds = append(conds, fmt.Sprintf("A.%s - B.%s > %.2f", pick(), pick(), rng.Float64()*8))
		case 1: // band
			a := pick()
			conds = append(conds, fmt.Sprintf("abs(A.%s - B.%s) < %.2f", a, a, rng.Float64()*2))
		case 2: // distance
			op := ">"
			if rng.Intn(2) == 0 {
				op = "<"
			}
			conds = append(conds, fmt.Sprintf("distance(A.x, A.y, B.x, B.y) %s %.0f", op, 50+rng.Float64()*200))
		case 3: // arithmetic combination
			conds = append(conds, fmt.Sprintf("A.%s + B.%s < %.1f", pick(), pick(), 20+rng.Float64()*1000))
		default: // disjunction across relations
			conds = append(conds, fmt.Sprintf("(A.%s > B.%s OR abs(A.%s - B.%s) < %.2f)",
				pick(), pick(), pick(), pick(), rng.Float64()))
		}
	}
	// Occasionally a local predicate.
	if rng.Intn(3) == 0 {
		conds = append(conds, fmt.Sprintf("A.light > %.0f", rng.Float64()*600))
	}
	if rng.Intn(4) == 0 {
		conds = append(conds, fmt.Sprintf("B.hum < %.0f", 30+rng.Float64()*60))
	}

	var sel []string
	nSel := 1 + rng.Intn(3)
	for i := 0; i < nSel; i++ {
		sel = append(sel, "A."+pick(), "B."+pick())
	}
	return fmt.Sprintf("SELECT %s FROM Sensors A, Sensors B WHERE %s ONCE",
		strings.Join(sel, ", "), strings.Join(conds, " AND "))
}

// Random queries on random topologies: SENS-Join must always match the
// oracle exactly, never report incomplete, and quantization must never
// lose result rows. This is the repository's strongest end-to-end
// property test.
func TestFuzzRandomQueriesMatchOracle(t *testing.T) {
	const iterations = 40
	for i := 0; i < iterations; i++ {
		rng := rand.New(rand.NewSource(int64(1000 + i)))
		r := testRunner(t, 60+rng.Intn(60), int64(500+i))
		src := randomQuery(rng)
		x, err := execSQL(r, src, 0)
		if err != nil {
			t.Fatalf("iter %d: parse %q: %v", i, src, err)
		}
		truth, err := GroundTruth(x)
		if err != nil {
			t.Fatalf("iter %d: oracle: %v", i, err)
		}
		res, err := r.Run(src, NewSENSJoin(), 0)
		if err != nil {
			t.Fatalf("iter %d: run %q: %v", i, src, err)
		}
		if !res.Complete {
			t.Fatalf("iter %d: incomplete without failures (%q)", i, src)
		}
		if len(res.Rows) != len(truth.Rows) {
			t.Fatalf("iter %d: %d rows vs oracle %d for %q", i, len(res.Rows), len(truth.Rows), src)
		}
		sameRows(t, truth.Rows, res.Rows, "oracle", "sens")
	}
}

// The same property under the external join and the raw-representation
// variant, with fewer iterations (they share most machinery).
func TestFuzzVariantsMatchOracle(t *testing.T) {
	for i := 0; i < 12; i++ {
		rng := rand.New(rand.NewSource(int64(2000 + i)))
		r := testRunner(t, 50+rng.Intn(40), int64(700+i))
		src := randomQuery(rng)
		x, err := execSQL(r, src, 0)
		if err != nil {
			t.Fatal(err)
		}
		truth, err := GroundTruth(x)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range []Method{External{}, &SENSJoin{Options: Options{Rep: RawRep{}}}} {
			res, err := r.Run(src, m, 0)
			if err != nil {
				t.Fatalf("iter %d %s: %v", i, m.Name(), err)
			}
			sameRows(t, truth.Rows, res.Rows, "oracle", m.Name())
		}
	}
}
