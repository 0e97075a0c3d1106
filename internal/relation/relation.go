// Package relation models the database abstraction of a sensor network.
//
// Following the paper (§III), the network is seen as one or more sensor
// relations: one attribute per sensor of a node plus the node coordinates,
// and one tuple per node. A homogeneous network has a single relation; in
// heterogeneous networks groups of nodes form different relations.
// Attribute definitions carry the quantization metadata ([min,max] range
// and resolution) that the base station disseminates independently of any
// query (§V-B, "Specifying Ranges and Resolution").
package relation

import (
	"fmt"

	"sensjoin/internal/field"
	"sensjoin/internal/geom"
	"sensjoin/internal/topology"
)

// AttrBytes is the wire size of one attribute value. The paper assumes
// two bytes per attribute (§IV-B).
const AttrBytes = 2

// AttrDef describes one attribute and its quantization.
type AttrDef struct {
	// Name is the attribute name (e.g. "temp", "x").
	Name string
	// Min and Max bound the expected value range.
	Min, Max float64
	// Res is the quantization step (paper: 0.1 degC for temperature,
	// 1 m for coordinates).
	Res float64
}

// Schema is a sensor relation's shape.
type Schema struct {
	// Name is the relation name as used in queries (e.g. "Sensors").
	Name string
	// Attrs lists the attributes in order.
	Attrs []AttrDef
}

// AttrIndex returns the index of the named attribute, or -1.
func (s *Schema) AttrIndex(name string) int {
	for i, a := range s.Attrs {
		if a.Name == name {
			return i
		}
	}
	return -1
}

// Attr returns the definition of the named attribute.
func (s *Schema) Attr(name string) (AttrDef, error) {
	if i := s.AttrIndex(name); i >= 0 {
		return s.Attrs[i], nil
	}
	return AttrDef{}, fmt.Errorf("relation: %s has no attribute %q", s.Name, name)
}

// TupleBytes returns the wire size of a tuple restricted to n attributes.
func TupleBytes(n int) int { return n * AttrBytes }

// Tuple is one node's row: values aligned with the schema's attributes.
type Tuple struct {
	Node topology.NodeID
	Vals []float64
}

// Value returns the tuple's value of the attribute at schema index i.
func (t Tuple) Value(i int) float64 { return t.Vals[i] }

// Snapshot is the materialized state of one relation at one instant.
type Snapshot struct {
	Schema *Schema
	// Tuples holds one tuple per member node, ordered by node id.
	Tuples []Tuple
	// Time is the sampling instant.
	Time float64
}

// Membership decides which relations a node belongs to. The default (nil)
// is a homogeneous network: every sensor node belongs to every relation.
// The base station (node 0) never contributes a tuple.
type Membership func(id topology.NodeID, rel string) bool

// Sample reads the environment at time t for every member node and
// returns the relation's snapshot. As required by the paper, each sensor
// is read exactly once per query execution; callers sample once and pass
// the snapshot to the join method.
func Sample(dep *topology.Deployment, env *field.Environment, schema *Schema, member Membership, t float64) *Snapshot {
	snap := &Snapshot{Schema: schema, Time: t}
	for i := 1; i < dep.N(); i++ {
		id := topology.NodeID(i)
		if member != nil && !member(id, schema.Name) {
			continue
		}
		tu := Tuple{Node: id, Vals: make([]float64, len(schema.Attrs))}
		for j, a := range schema.Attrs {
			tu.Vals[j] = env.Read(a.Name, dep.Pos[i], t)
		}
		snap.Tuples = append(snap.Tuples, tu)
	}
	return snap
}

// StandardSchema returns the default homogeneous relation "Sensors" with
// the quantization settings used throughout the experiments; coordinate
// ranges are derived from the deployment area.
func StandardSchema(area geom.Rect) *Schema {
	return &Schema{
		Name: "Sensors",
		Attrs: []AttrDef{
			{Name: "temp", Min: 0, Max: 40, Res: 0.1},
			{Name: "hum", Min: 0, Max: 100, Res: 0.5},
			{Name: "pres", Min: 990, Max: 1040, Res: 0.25},
			{Name: "light", Min: 0, Max: 1500, Res: 5},
			{Name: "x", Min: area.MinX, Max: area.MaxX, Res: 1},
			{Name: "y", Min: area.MinY, Max: area.MaxY, Res: 1},
		},
	}
}

// Catalog maps relation names to schemas.
type Catalog map[string]*Schema

// Lookup returns the schema for name.
func (c Catalog) Lookup(name string) (*Schema, error) {
	if s, ok := c[name]; ok {
		return s, nil
	}
	return nil, fmt.Errorf("relation: unknown relation %q", name)
}
