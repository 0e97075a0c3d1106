package core

import (
	"testing"

	"sensjoin/internal/topology"
)

// The sizes the accounting charges must be achievable byte encodings:
// every complete tuple marshals to exactly its accounted size via the
// schema's fixed-point codecs, and the quadtree payload is already the
// literal wire bitstring.
func TestAccountedSizesAreEncodable(t *testing.T) {
	r := testRunner(t, 120, 801)
	x, err := execSQL(r, qBand(0.4), 0)
	if err != nil {
		t.Fatal(err)
	}
	p := buildPlan(x)
	schema := r.Catalog["Sensors"]
	for id := 1; id < r.Dep.N(); id++ {
		nd := p.nodes[id]
		if nd.flags == 0 {
			continue
		}
		shipped := shippedUnion(x, nd.flags)
		tc := TupleCodec{}
		vals := make([]float64, 0, len(shipped))
		for _, name := range shipped {
			def, err := schema.Attr(name)
			if err != nil {
				t.Fatal(err)
			}
			tc.Attrs = append(tc.Attrs, AttrCodec{Min: def.Min, Max: def.Max})
			vals = append(vals, x.column(name)[id])
		}
		b, err := tc.MarshalBatch([][]float64{vals})
		if err != nil {
			t.Fatal(err)
		}
		if len(b) != nd.tupleBytes {
			t.Fatalf("node %d: marshalled %d bytes, accounted %d", id, len(b), nd.tupleBytes)
		}
		// The fixed-point roundtrip stays within each attribute's native
		// step, far below the join-attribute quantization resolution.
		back, err := tc.UnmarshalBatch(b, 1)
		if err != nil {
			t.Fatal(err)
		}
		for j, v := range back[0] {
			if d := v - vals[j]; d > tc.Attrs[j].Step() || d < -tc.Attrs[j].Step() {
				t.Fatalf("node %d attr %d drifted by %g", id, j, d)
			}
		}
	}
	// Quadtree payloads: the accounted size IS the bitstring length.
	encoded := p.codec.Encode(keysOfPlan(p))
	if encoded.ByteLen() != (QuadRep{}).SetBytes(p, keysOfPlan(p)) {
		t.Fatal("quad accounting does not equal the literal encoding")
	}
	_ = topology.BaseStation
}

func keysOfPlan(p *plan) []uint64 {
	var keys []uint64
	for _, nd := range p.nodes {
		if nd.flags != 0 {
			keys = append(keys, nd.key)
		}
	}
	return keys
}
