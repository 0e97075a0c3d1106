package relation

import (
	"testing"

	"sensjoin/internal/field"
	"sensjoin/internal/geom"
	"sensjoin/internal/topology"
)

func testDeployment(t *testing.T) *topology.Deployment {
	t.Helper()
	d, err := topology.Generate(topology.Config{
		Nodes: 50, Area: geom.Square(200), Range: 60, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestSchemaLookup(t *testing.T) {
	s := StandardSchema(geom.Square(1050))
	if s.Name != "Sensors" {
		t.Fatalf("Name = %q", s.Name)
	}
	if i := s.AttrIndex("temp"); i != 0 {
		t.Fatalf("AttrIndex(temp) = %d", i)
	}
	if i := s.AttrIndex("nope"); i != -1 {
		t.Fatalf("AttrIndex(nope) = %d, want -1", i)
	}
	a, err := s.Attr("x")
	if err != nil {
		t.Fatal(err)
	}
	if a.Min != 0 || a.Max != 1050 || a.Res != 1 {
		t.Fatalf("x quantization = %+v", a)
	}
	if _, err := s.Attr("bogus"); err == nil {
		t.Fatal("expected error for unknown attribute")
	}
}

func TestTupleBytes(t *testing.T) {
	if TupleBytes(5) != 10 {
		t.Fatalf("TupleBytes(5) = %d, want 10 (2 bytes per attribute)", TupleBytes(5))
	}
	if TupleBytes(0) != 0 {
		t.Fatal("TupleBytes(0) != 0")
	}
}

func TestSampleHomogeneous(t *testing.T) {
	d := testDeployment(t)
	env := field.StandardEnvironment(d.Area, 42)
	s := StandardSchema(d.Area)
	snap := Sample(d, env, s, nil, 0)
	if len(snap.Tuples) != d.N()-1 {
		t.Fatalf("snapshot has %d tuples, want %d (base station excluded)", len(snap.Tuples), d.N()-1)
	}
	// Tuples ordered by node id, values aligned with schema.
	xi := s.AttrIndex("x")
	yi := s.AttrIndex("y")
	for i, tu := range snap.Tuples {
		if i > 0 && tu.Node <= snap.Tuples[i-1].Node {
			t.Fatal("tuples not ordered by node id")
		}
		p := d.Pos[tu.Node]
		if tu.Value(xi) != p.X || tu.Value(yi) != p.Y {
			t.Fatalf("node %d coordinates wrong: (%g,%g) vs %+v", tu.Node, tu.Value(xi), tu.Value(yi), p)
		}
	}
}

func TestSampleMembership(t *testing.T) {
	d := testDeployment(t)
	env := field.StandardEnvironment(d.Area, 42)
	s := StandardSchema(d.Area)
	// Odd node ids only.
	member := func(id topology.NodeID, rel string) bool { return id%2 == 1 }
	snap := Sample(d, env, s, member, 0)
	for _, tu := range snap.Tuples {
		if tu.Node%2 != 1 {
			t.Fatalf("node %d sampled despite membership filter", tu.Node)
		}
	}
	if len(snap.Tuples) == 0 {
		t.Fatal("no tuples sampled")
	}
}

func TestSampleDeterministicAndTimeDependent(t *testing.T) {
	d := testDeployment(t)
	env := field.StandardEnvironment(d.Area, 42)
	s := StandardSchema(d.Area)
	a := Sample(d, env, s, nil, 0)
	b := Sample(d, env, s, nil, 0)
	ti := s.AttrIndex("temp")
	for i := range a.Tuples {
		if a.Tuples[i].Value(ti) != b.Tuples[i].Value(ti) {
			t.Fatal("sampling not deterministic")
		}
	}
	c := Sample(d, env, s, nil, 100)
	diff := false
	for i := range a.Tuples {
		if a.Tuples[i].Value(ti) != c.Tuples[i].Value(ti) {
			diff = true
			break
		}
	}
	if !diff {
		t.Fatal("drifting field should change between t=0 and t=100")
	}
}

func TestCatalog(t *testing.T) {
	s := StandardSchema(geom.Square(100))
	c := Catalog{"Sensors": s}
	got, err := c.Lookup("Sensors")
	if err != nil || got != s {
		t.Fatalf("Lookup failed: %v", err)
	}
	if _, err := c.Lookup("Other"); err == nil {
		t.Fatal("expected error for unknown relation")
	}
}
