package topology

import (
	"fmt"
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"sensjoin/internal/geom"
)

func smallConfig(seed int64) Config {
	return Config{
		Nodes: 200,
		Area:  geom.Square(400),
		Range: 50,
		Seed:  seed,
	}
}

// connected reports whether every node of d reaches the base station
// over its neighbor lists: what a reader of the deployment sees,
// independent of the grid that Generate decides connectivity on.
func connected(d *Deployment) bool {
	label, _ := listComponents(d)
	for _, c := range label {
		if c != 0 {
			return false
		}
	}
	return true
}

// listComponents labels the components of d's neighbor lists, numbered
// in the order of each one's lowest id, and returns their sizes.
func listComponents(d *Deployment) (label []int32, size []int) {
	label = make([]int32, d.N())
	for i := range label {
		label[i] = -1
	}
	for start := range label {
		if label[start] >= 0 {
			continue
		}
		c := int32(len(size))
		label[start] = c
		queue := []NodeID{NodeID(start)}
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			for _, v := range d.Neighbors[u] {
				if label[v] < 0 {
					label[v] = c
					queue = append(queue, v)
				}
			}
		}
		size = append(size, 0)
	}
	for _, c := range label {
		size[c]++
	}
	return label, size
}

// TestGridComponentsMatchLists: repair decides on the grid what it used
// to decide on the neighbor lists, so the grid's labels and sizes must
// be the lists' exactly, on placements of many components.
func TestGridComponentsMatchLists(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		for _, nodes := range []int{300, 2000} {
			d := place(Config{Nodes: nodes, Area: ScaledArea(3 * nodes), Range: 50}, seed)
			d.buildNeighbors()
			var g grid
			g.index(d)
			label, size := g.components(d)
			wantLabel, wantSize := listComponents(d)
			if !reflect.DeepEqual(label, wantLabel) || !reflect.DeepEqual(size, wantSize) {
				t.Fatalf("seed %d, %d nodes: grid components differ from the lists'", seed, nodes)
			}
			if len(size) < 2 {
				t.Fatalf("seed %d, %d nodes: fixture is connected, want several components", seed, nodes)
			}
			if g.connected(d) != connected(d) {
				t.Fatalf("seed %d, %d nodes: grid and lists disagree on connectivity", seed, nodes)
			}
		}
	}
	// Every lattice link is at distance² == Range² exactly.
	d := Grid(20, 20, 50, 50)
	var g grid
	g.index(d)
	if label, size := g.components(d); len(size) != 1 || !reflect.DeepEqual(label, make([]int32, d.N())) || !g.connected(d) {
		t.Fatalf("lattice at spacing Range: %d components on the grid, want the one its lists form", len(size))
	}
}

func TestGenerateConnected(t *testing.T) {
	d, err := Generate(smallConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	if d.N() != 201 {
		t.Fatalf("N = %d, want 201", d.N())
	}
	if !connected(d) {
		t.Fatal("Generate returned a disconnected deployment")
	}
}

func TestGenerateRejectsBadConfig(t *testing.T) {
	if _, err := Generate(Config{Nodes: 0, Area: geom.Square(100), Range: 50}); err == nil {
		t.Fatal("expected error for zero nodes")
	}
	if _, err := Generate(Config{Nodes: 10, Area: geom.Square(100), Range: 0}); err == nil {
		t.Fatal("expected error for zero range")
	}
}

func TestGenerateFailsWhenTooSparse(t *testing.T) {
	_, err := Generate(Config{
		Nodes: 5, Area: geom.Square(10000), Range: 10,
		Seed: 1, MaxRetries: 3,
	})
	if err == nil {
		t.Fatal("expected failure for a hopelessly sparse deployment")
	}
}

func TestBaseStationPlacement(t *testing.T) {
	dc, err := Generate(Config{Nodes: 100, Area: geom.Square(300), Range: 60, Base: BaseCorner, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if dc.Pos[0] != (geom.Point{X: 0, Y: 0}) {
		t.Fatalf("corner base at %+v, want (0,0)", dc.Pos[0])
	}
	dm, err := Generate(Config{Nodes: 100, Area: geom.Square(300), Range: 60, Base: BaseCenter, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if dm.Pos[0] != (geom.Point{X: 150, Y: 150}) {
		t.Fatalf("center base at %+v, want (150,150)", dm.Pos[0])
	}
}

func TestNeighborsSymmetricAndInRange(t *testing.T) {
	d, err := Generate(smallConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	for i, nbs := range d.Neighbors {
		for _, j := range nbs {
			if geom.Dist(d.Pos[i], d.Pos[j]) > d.Range+1e-9 {
				t.Fatalf("neighbor %d of %d out of range", j, i)
			}
			if !d.IsNeighbor(j, NodeID(i)) {
				t.Fatalf("asymmetric neighborhood: %d has %d but not vice versa", i, j)
			}
		}
	}
}

func TestNeighborsSorted(t *testing.T) {
	d, err := Generate(smallConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	for i, nbs := range d.Neighbors {
		for k := 1; k < len(nbs); k++ {
			if nbs[k] <= nbs[k-1] {
				t.Fatalf("neighbors of %d not strictly sorted: %v", i, nbs)
			}
		}
	}
}

func TestIsNeighborNegative(t *testing.T) {
	d, err := Generate(smallConfig(5))
	if err != nil {
		t.Fatal(err)
	}
	// Find some non-neighbor pair.
	for i := 0; i < d.N(); i++ {
		for j := 0; j < d.N(); j++ {
			if i != j && geom.Dist(d.Pos[i], d.Pos[j]) > d.Range {
				if d.IsNeighbor(NodeID(i), NodeID(j)) {
					t.Fatalf("IsNeighbor(%d,%d) true for out-of-range pair", i, j)
				}
				return
			}
		}
	}
}

func TestDeterministicPlacement(t *testing.T) {
	d1, err := Generate(smallConfig(7))
	if err != nil {
		t.Fatal(err)
	}
	d2, err := Generate(smallConfig(7))
	if err != nil {
		t.Fatal(err)
	}
	for i := range d1.Pos {
		if d1.Pos[i] != d2.Pos[i] {
			t.Fatalf("placement not deterministic at node %d", i)
		}
	}
}

// bruteNeighbors is the O(n^2) definition of the neighbor lists: every
// other node within Range, ascending, and nil for an isolated node.
func bruteNeighbors(d *Deployment) [][]NodeID {
	r2 := d.Range * d.Range
	out := make([][]NodeID, d.N())
	for i := range out {
		for j := range out {
			if i != j && geom.Dist2(d.Pos[i], d.Pos[j]) <= r2 {
				out[i] = append(out[i], NodeID(j))
			}
		}
	}
	return out
}

// checkNeighbors compares d's lists with the O(n^2) definition, nil for
// nil, and checks that no list has spare capacity an append could write
// into the next node's list through.
func checkNeighbors(t *testing.T, what string, d *Deployment) {
	t.Helper()
	want := bruteNeighbors(d)
	for i, got := range d.Neighbors {
		if !reflect.DeepEqual(got, want[i]) {
			t.Fatalf("%s: node %d has neighbors %v, want %v", what, i, got, want[i])
		}
		if cap(got) != len(got) {
			t.Fatalf("%s: node %d's list has cap %d, len %d", what, i, cap(got), len(got))
		}
	}
}

// TestGridNeighborMatchesBruteForce: the grid-accelerated neighbor
// construction must agree exactly with the O(n^2) definition, on the
// parallel path and at the grid's edge cases: ties at exactly Range on
// cell edges, coincident nodes, the clamped edge cells and a repaired
// placement.
func TestGridNeighborMatchesBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		cfg := Config{Nodes: 60, Area: geom.Square(250), Range: 50, Seed: seed % 1000}
		d := place(cfg, cfg.Seed)
		d.buildNeighbors()
		return reflect.DeepEqual(d.Neighbors, bruteNeighbors(d))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
	// Above the sequential threshold of 4096 nodes, so the workers split
	// both passes.
	for _, workers := range []int{1, 2, 4} {
		d := randomDeployment(5000, 7)
		d.buildNeighborsParallel(workers)
		checkNeighbors(t, fmt.Sprintf("5000 random nodes, %d workers", workers), d)
	}
	// Spacing exactly Range: every lattice neighbor is at distance² == r2
	// and every node sits on a cell edge.
	checkNeighbors(t, "grid at spacing Range", Grid(30, 30, 50, 50))
	checkNeighbors(t, "grid at spacing Range/2", Grid(30, 30, 25, 50))
	// Three coincident nodes, an isolated one, and four outside the area
	// that the grid clamps into its first and last column.
	pos := []geom.Point{
		{X: 0, Y: 0}, {X: 10, Y: 10}, {X: 10, Y: 10}, {X: 10, Y: 10}, {X: 60, Y: 10}, {X: 150, Y: 150},
		{X: -30, Y: 10}, {X: -70, Y: -20}, {X: 290, Y: 230}, {X: 330, Y: 230},
	}
	d := &Deployment{Pos: pos, Range: 50, Area: geom.Rect{MaxX: 200, MaxY: 200}}
	d.buildNeighbors()
	checkNeighbors(t, "coincident and clamped nodes", d)
	if d.Neighbors[5] != nil {
		t.Fatalf("isolated node has list %v, want nil", d.Neighbors[5])
	}
	checkNeighbors(t, "line", Line(300, 40, 50))
	checkNeighbors(t, "line at spacing Range", Line(300, 50, 50))
	for _, workers := range []int{1, 2} {
		cfg := Config{Nodes: 5000, Area: ScaledArea(15000), Range: 50, Seed: 3, Repair: true}
		d, err := GenerateParallel(cfg, workers)
		if err != nil {
			t.Fatal(err)
		}
		checkNeighbors(t, fmt.Sprintf("repaired placement, %d workers", workers), d)
	}
}

// TestIsNeighborMatchesLists: IsNeighbor decides on positions, and must
// agree with membership in the built lists over every ordered pair,
// including a node with itself, at the grid's edge cases.
func TestIsNeighborMatchesLists(t *testing.T) {
	pos := []geom.Point{
		{X: 0, Y: 0}, {X: 10, Y: 10}, {X: 10, Y: 10}, {X: 10, Y: 10}, {X: 60, Y: 10}, {X: 150, Y: 150},
		{X: -30, Y: 10}, {X: -70, Y: -20}, {X: 290, Y: 230}, {X: 330, Y: 230},
	}
	clamped := &Deployment{Pos: pos, Range: 50, Area: geom.Rect{MaxX: 200, MaxY: 200}}
	clamped.buildNeighbors()
	repaired, err := GenerateParallel(Config{Nodes: 5000, Area: ScaledArea(15000), Range: 50, Seed: 3, Repair: true}, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		d    *Deployment
	}{
		{"line", Line(300, 40, 50)},
		{"line at spacing Range", Line(300, 50, 50)},
		{"grid at spacing Range", Grid(30, 30, 50, 50)},
		{"grid at spacing Range/2", Grid(30, 30, 25, 50)},
		{"coincident and clamped nodes", clamped},
		{"repaired 5000-node placement", repaired},
	} {
		listed := make([]bool, c.d.N())
		for a, nb := range c.d.Neighbors {
			for _, v := range nb {
				listed[v] = true
			}
			for b := range listed {
				if got := c.d.IsNeighbor(NodeID(a), NodeID(b)); got != listed[b] {
					t.Fatalf("%s: IsNeighbor(%d, %d) = %t, list membership %t", c.name, a, b, got, listed[b])
				}
			}
			for _, v := range nb {
				listed[v] = false
			}
		}
	}
}

func TestAvgDegreePaperDensity(t *testing.T) {
	// Paper setting: 1500 nodes, 1050x1050 m, 50 m range. Expected average
	// neighborhood size around 6-15 (paper §IV-B cites [3], [8]).
	d, err := Generate(Config{Nodes: 1500, Area: geom.Square(1050), Range: 50, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	deg := d.AvgDegree()
	if deg < 6 || deg > 15 {
		t.Fatalf("average degree %g outside the paper's 6-15 band", deg)
	}
}

func TestScaledAreaKeepsDensity(t *testing.T) {
	a1000 := ScaledArea(1000)
	a2500 := ScaledArea(2500)
	d1 := 1000 / a1000.Area()
	d2 := 2500 / a2500.Area()
	if d1/d2 < 0.99 || d1/d2 > 1.01 {
		t.Fatalf("densities differ: %g vs %g", d1, d2)
	}
	ref := ScaledArea(1500)
	if ref.Width() < 1049 || ref.Width() > 1051 {
		t.Fatalf("ScaledArea(1500) side = %g, want 1050", ref.Width())
	}
}

func TestLineTopology(t *testing.T) {
	d := Line(5, 40, 50)
	if d.N() != 6 {
		t.Fatalf("N = %d, want 6", d.N())
	}
	for i := 0; i < 6; i++ {
		want := 2
		if i == 0 || i == 5 {
			want = 1
		}
		if len(d.Neighbors[i]) != want {
			t.Fatalf("node %d has %d neighbors, want %d", i, len(d.Neighbors[i]), want)
		}
	}
	if !connected(d) {
		t.Fatal("line must be connected")
	}
}

func TestGridTopology(t *testing.T) {
	d := Grid(4, 3, 40, 50)
	if d.N() != 12 {
		t.Fatalf("N = %d, want 12", d.N())
	}
	if !connected(d) {
		t.Fatal("grid must be connected")
	}
	// Interior node (1,1) = index 5 has 4 lattice neighbors at spacing
	// 40 < range 50 < diagonal ~56.6.
	if len(d.Neighbors[5]) != 4 {
		t.Fatalf("interior node has %d neighbors, want 4", len(d.Neighbors[5]))
	}
	// Corner has 2.
	if len(d.Neighbors[0]) != 2 {
		t.Fatalf("corner has %d neighbors, want 2", len(d.Neighbors[0]))
	}
}

// Over seeds 1–10 and 42 at 150, 1500 and 10,000 nodes, at the density
// every runner uses (ScaledArea, 50 m range: about 10.7 neighbours per
// node), Generate returns a connected deployment whose largest degree
// stays under maxDegree, and each set-up finishes within setupLimit —
// by re-sampling (NewRunner) and by repair (the scale experiment) alike.
// Neither bound is tight: the largest degree seen is 29 and the slowest
// 10,000-node set-up about 0.1 s. They catch a repair that piles
// relocated nodes into a few radio disks, and a hostile seed that never
// finishes (seed 2 once hung a 100,000-node set-up).
func TestGenerateProperties(t *testing.T) {
	const maxDegree, setupLimit = 40, 5 * time.Second
	seeds := []int64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 42}
	for _, repair := range []bool{false, true} {
		for _, nodes := range []int{150, 1500, 10000} {
			for _, seed := range seeds {
				cfg := Config{Nodes: nodes, Area: ScaledArea(nodes), Range: 50, Seed: seed, Repair: repair}
				type outcome struct {
					d   *Deployment
					err error
				}
				done := make(chan outcome, 1)
				go func() {
					d, err := Generate(cfg)
					done <- outcome{d, err}
				}()
				var out outcome
				select {
				case out = <-done:
				case <-time.After(setupLimit):
					t.Fatalf("repair=%t, %d nodes, seed %d: set-up still running after %v", repair, nodes, seed, setupLimit)
				}
				if out.err != nil {
					t.Fatalf("repair=%t, %d nodes, seed %d: %v", repair, nodes, seed, out.err)
				}
				d := out.d
				if d.N() != nodes+1 || !connected(d) {
					t.Fatalf("repair=%t, %d nodes, seed %d: %d nodes, connected=%t", repair, nodes, seed, d.N(), connected(d))
				}
				for id, nb := range d.Neighbors {
					if len(nb) >= maxDegree {
						t.Fatalf("repair=%t, %d nodes, seed %d: node %d has %d neighbours, want < %d", repair, nodes, seed, id, len(nb), maxDegree)
					}
				}
			}
		}
	}
}
