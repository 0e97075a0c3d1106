package core

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"

	"sensjoin/internal/geom"
	"sensjoin/internal/relation"
)

// A prepared execution is the same computation with the per-shape work
// hoisted, so rows must be identical to the ad-hoc path.
func TestPreparedMatchesAdHoc(t *testing.T) {
	r, err := NewRunner(SetupConfig{Nodes: 200, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	for _, src := range []string{
		`SELECT A.temp, B.hum FROM Sensors A, Sensors B WHERE A.temp - B.temp > 8.0 ONCE`,
		`SELECT A.temp FROM Sensors A, Sensors B WHERE A.temp = B.temp AND A.hum < 60 ONCE`,
		`SELECT MIN(distance(A.x, A.y, B.x, B.y)) FROM Sensors A, Sensors B WHERE A.temp - B.temp > 10.0 ONCE`,
		`SELECT * FROM Sensors A, Sensors B WHERE A.temp - B.temp > 12.0 AND A.pres < 1010 ONCE`,
	} {
		want, err := r.Run(src, NewSENSJoin(), 0)
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		p, err := r.Prepare(src)
		if err != nil {
			t.Fatalf("prepare %s: %v", src, err)
		}
		got, err := r.RunPrepared(p, NewSENSJoin(), 0)
		if err != nil {
			t.Fatalf("run prepared %s: %v", src, err)
		}
		if fmt.Sprint(got.Columns) != fmt.Sprint(want.Columns) ||
			fmt.Sprint(got.Rows) != fmt.Sprint(want.Rows) ||
			got.ContributingNodes != want.ContributingNodes {
			t.Fatalf("prepared result differs for %s", src)
		}
	}
}

// One Prepared shared by many concurrent executions (each on its own
// runner) must stay correct: all cached state is immutable, and every
// execution's rows must match the independent ad-hoc run. Run with
// -race.
func TestPreparedConcurrentSharing(t *testing.T) {
	const src = `SELECT A.temp, B.hum FROM Sensors A, Sensors B WHERE A.temp - B.temp > 8.0 ONCE`
	ref, err := NewRunner(SetupConfig{Nodes: 150, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.Run(src, NewSENSJoin(), 0)
	if err != nil {
		t.Fatal(err)
	}
	p, err := ref.Prepare(src)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make([]error, 8)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r, err := NewRunner(SetupConfig{Nodes: 150, Seed: 5})
			if err != nil {
				errs[i] = err
				return
			}
			for k := 0; k < 4; k++ {
				got, err := r.RunPrepared(p, NewSENSJoin(), 0)
				if err != nil {
					errs[i] = err
					return
				}
				if fmt.Sprint(got.Rows) != fmt.Sprint(want.Rows) {
					errs[i] = fmt.Errorf("worker %d iteration %d: rows differ", i, k)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

// Same canonical shape, different literals: distinct fingerprints and
// distinct (correct) tables.
func TestPreparedLiteralsDistinct(t *testing.T) {
	r, err := NewRunner(SetupConfig{Nodes: 200, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	p1, err := r.Prepare(`SELECT A.temp FROM Sensors A, Sensors B WHERE A.temp - B.temp > 8.0 ONCE`)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := r.Prepare(`SELECT A.temp FROM Sensors A, Sensors B WHERE A.temp - B.temp > 12.0 ONCE`)
	if err != nil {
		t.Fatal(err)
	}
	if p1.Fingerprint() == p2.Fingerprint() {
		t.Fatal("different literals share a fingerprint")
	}
	r1, err := r.RunPrepared(p1, NewSENSJoin(), 0)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := r.RunPrepared(p2, NewSENSJoin(), 0)
	if err != nil {
		t.Fatal(err)
	}
	w1, _ := r.Run(p1.src, NewSENSJoin(), 0)
	w2, _ := r.Run(p2.src, NewSENSJoin(), 0)
	if fmt.Sprint(r1.Rows) != fmt.Sprint(w1.Rows) || fmt.Sprint(r2.Rows) != fmt.Sprint(w2.Rows) {
		t.Fatal("prepared rows differ from ad-hoc rows")
	}
	if len(r1.Rows) == len(r2.Rows) {
		t.Logf("note: both thresholds yield %d rows (legal, but weakens the test)", len(r1.Rows))
	}
}

// Every attribute reference is checked against its own FROM entry's
// schema: another relation of the query defining the name does not make
// it valid, and neither does the environment, which would sample any
// name.
func TestPrepareRefusesUndefinedAttrs(t *testing.T) {
	sensors := relation.StandardSchema(geom.Square(300))
	tagged := &relation.Schema{Name: "Tagged", Attrs: append(slices.Clone(sensors.Attrs), relation.AttrDef{Name: "tag", Min: 0, Max: 16, Res: 1})}
	cat := relation.Catalog{"Sensors": sensors, "Tagged": tagged}
	refused := []struct{ clause, src, name string }{
		{"SELECT", `SELECT A.a0, B.zz FROM Sensors A, Sensors B WHERE A.temp > B.temp ONCE`, "A.a0"},
		{"SELECT aggregate", `SELECT MAX(B.zz) FROM Sensors A, Sensors B WHERE A.temp > B.temp ONCE`, "B.zz"},
		{"WHERE, local", `SELECT A.temp FROM Sensors A, Sensors B WHERE A.zz > 1 AND A.temp > B.temp ONCE`, "A.zz"},
		{"WHERE, join", `SELECT A.temp FROM Sensors A, Sensors B WHERE A.temp - B.zz > 1 ONCE`, "B.zz"},
		{"GROUP BY", `SELECT A.zz, COUNT(B.temp) FROM Sensors A, Sensors B WHERE A.temp > B.temp GROUP BY A.zz ONCE`, "A.zz"},
		{"the other relation's name, in SELECT", `SELECT A.tag FROM Sensors A, Tagged B WHERE A.temp > B.temp ONCE`, "A.tag"},
		{"the other relation's name, in a join", `SELECT A.temp FROM Sensors A, Tagged B WHERE A.tag = B.tag ONCE`, "A.tag"},
	}
	for _, c := range refused {
		_, err := Prepare(cat, c.src)
		if err == nil || !strings.Contains(err.Error(), c.name) {
			t.Errorf("%s: Prepare = %v, want an error naming %s", c.clause, err, c.name)
		}
	}
	accepted := []string{
		`SELECT B.tag, A.temp FROM Sensors A, Tagged B WHERE B.tag > 3 AND A.temp - B.temp > 1 ORDER BY 1 ONCE`,
		`SELECT B.tag, COUNT(A.temp) FROM Sensors A, Tagged B WHERE A.temp > B.temp GROUP BY B.tag ONCE`,
		`SELECT * FROM Sensors A, Tagged B WHERE A.temp > B.temp ONCE`,
	}
	for _, src := range accepted {
		if _, err := Prepare(cat, src); err != nil {
			t.Errorf("%q: %v", src, err)
		}
	}
}
