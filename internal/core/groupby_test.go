package core

import (
	"math"
	"testing"
)

// Grouped, ordered and limited queries must return identical rows from
// SENS-Join, the external join and the oracle — including row ORDER,
// which the tie-broken sort makes deterministic across methods.
func TestGroupByAcrossMethods(t *testing.T) {
	r := testRunner(t, 150, 901)
	queries := []string{
		// Histogram: how many partner pairs per 1-degree bucket of the
		// hotter side's temperature.
		`SELECT A.temp - abs(A.temp - A.temp), COUNT(B.temp)
			FROM Sensors A, Sensors B
			WHERE A.temp - B.temp > 4
			GROUP BY A.temp - abs(A.temp - A.temp) ONCE`,
		// Average contrast per bucket, ordered by bucket.
		`SELECT A.temp, AVG(A.temp - B.temp), MAX(A.temp - B.temp)
			FROM Sensors A, Sensors B
			WHERE A.temp - B.temp > 4
			GROUP BY A.temp ORDER BY 1 ONCE`,
		// Top-5 hottest contrasts.
		`SELECT A.temp, B.temp FROM Sensors A, Sensors B
			WHERE A.temp - B.temp > 4 ORDER BY 1 DESC, 2 LIMIT 5 ONCE`,
	}
	for _, src := range queries {
		x, err := execSQL(r, src, 0)
		if err != nil {
			t.Fatalf("%q: %v", src, err)
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
			if len(res.Rows) != len(truth.Rows) {
				t.Fatalf("%s: %d rows, oracle %d (%q)", m.Name(), len(res.Rows), len(truth.Rows), src)
			}
			// Ordered queries must match row for row, in order. Not bit for
			// bit: SUM and AVG add a group's values in the order the tuples
			// reach the base station, which is not the oracle's order, so
			// the last bits of a sum may differ (the external join's AVG
			// does here).
			for i := range res.Rows {
				for j := range res.Rows[i] {
					if math.Abs(res.Rows[i][j]-truth.Rows[i][j]) > 1e-9 {
						t.Fatalf("%s row %d col %d: %g vs oracle %g",
							m.Name(), i, j, res.Rows[i][j], truth.Rows[i][j])
					}
				}
			}
		}
	}
}

func TestGroupByAggregation(t *testing.T) {
	r := testRunner(t, 100, 903)
	src := `SELECT A.temp, COUNT(B.temp), AVG(B.temp)
		FROM Sensors A, Sensors B
		WHERE A.temp - B.temp > 5
		GROUP BY A.temp ORDER BY 1 ONCE`
	x, err := execSQL(r, src, 0)
	if err != nil {
		t.Fatal(err)
	}
	res, err := GroundTruth(x)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) == 0 {
		t.Skip("no groups at this threshold")
	}
	prev := math.Inf(-1)
	for _, row := range res.Rows {
		if row[0] < prev {
			t.Fatal("groups not ordered by the first column")
		}
		prev = row[0]
		if row[1] < 1 {
			t.Fatalf("group with zero count: %v", row)
		}
		// AVG(B.temp) of a group must satisfy A.temp - avg > 5? No: avg
		// of values each 5 below A.temp is itself 5 below.
		if row[0]-row[2] <= 5 {
			t.Fatalf("group avg violates the join condition: %v", row)
		}
	}
}

func TestLimitCountsRows(t *testing.T) {
	r := testRunner(t, 100, 907)
	src := `SELECT A.temp, B.temp FROM Sensors A, Sensors B
		WHERE A.temp - B.temp > 3 ORDER BY 1 LIMIT 7 ONCE`
	res, err := r.Run(src, NewSENSJoin(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) > 7 {
		t.Fatalf("LIMIT 7 returned %d rows", len(res.Rows))
	}
}

func TestGroupBySQLValidation(t *testing.T) {
	r := testRunner(t, 30, 909)
	// Non-aggregate item missing from GROUP BY must be rejected.
	src := `SELECT A.hum, COUNT(B.temp) FROM Sensors A, Sensors B
		WHERE A.temp - B.temp > 3 GROUP BY A.temp ONCE`
	if _, err := execSQL(r, src, 0); err == nil {
		t.Fatal("ungrouped non-aggregate item must be rejected")
	}
	// LIMIT without ORDER BY must be rejected at parse time.
	if _, err := execSQL(r, `SELECT A.temp FROM Sensors A LIMIT 3 ONCE`, 0); err == nil {
		t.Fatal("LIMIT without ORDER BY must be rejected")
	}
}

func TestGroupByAttrsAreShipped(t *testing.T) {
	// A grouping attribute outside SELECT/WHERE must still ship.
	r := testRunner(t, 60, 911)
	src := `SELECT COUNT(A.temp) FROM Sensors A, Sensors B
		WHERE A.temp - B.temp > 4 GROUP BY A.light ONCE`
	x, err := execSQL(r, src, 0)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, a := range x.Analysis.ShippedAttrs[0] {
		if a == "light" {
			found = true
		}
	}
	if !found {
		t.Fatalf("grouping attribute not shipped: %v", x.Analysis.ShippedAttrs[0])
	}
	truth, err := GroundTruth(x)
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.Run(src, NewSENSJoin(), 0)
	if err != nil {
		t.Fatal(err)
	}
	sameTable(t, truth, res, "grouped-sens")
}
