// Package topology places sensor nodes and derives the communication
// graph of a deployment.
//
// The paper's setting (§VI, "General setting"): nodes are distributed
// uniformly at random over a square area, the communication range is 50 m,
// links are bidirectional (unit-disk model), and a powered base station
// serves as access point. Node 0 is always the base station.
package topology

import (
	"fmt"
	"math"
	"math/rand"
	"sync"

	"sensjoin/internal/geom"
)

// NodeID identifies a node. The base station is node 0.
type NodeID int

// BaseStation is the id of the base station.
const BaseStation NodeID = 0

// BasePlacement selects where the base station sits.
type BasePlacement int

const (
	// BaseCorner puts the base station in the lower-left corner,
	// maximizing routing-tree depth (the common data-collection layout).
	BaseCorner BasePlacement = iota
	// BaseCenter puts the base station at the center of the area.
	BaseCenter
)

// Config describes a deployment to generate.
type Config struct {
	// Nodes is the number of sensor nodes, excluding the base station.
	Nodes int
	// Area is the deployment region.
	Area geom.Rect
	// Range is the communication radius in meters (paper: 50 m).
	Range float64
	// Base selects the base-station placement.
	Base BasePlacement
	// Seed makes placement reproducible.
	Seed int64
	// MaxRetries bounds re-sampling attempts when the random placement
	// is disconnected. Zero means a sensible default.
	MaxRetries int
	// Repair, instead of re-sampling a disconnected placement,
	// deterministically relocates every node outside the base station's
	// component into the radio disk of a reachable node. Rejection
	// sampling is hopeless at scale — a boundary node of a
	// constant-density placement is isolated with probability
	// ~e^(-deg/2), so the chance that all of them connect vanishes as n
	// grows — while the repair perturbs only the few affected nodes.
	Repair bool
}

// Deployment is a concrete placement with its communication graph.
//
// Immutability contract: a Deployment is fully built by Generate (or the
// test constructors) and never mutated afterwards — no code may write to
// Pos, Neighbors or the scalar fields once the value is returned. This
// makes a Deployment safe to share across concurrently running
// simulations (core's deployment cache relies on it); all mutable link
// state, such as failure injection, lives in netsim.Network.
type Deployment struct {
	// Pos holds node positions; Pos[0] is the base station.
	Pos []geom.Point
	// Range is the communication radius.
	Range float64
	// Area is the deployment region.
	Area geom.Rect
	// Neighbors lists, per node, the ids within communication range,
	// sorted ascending; nil for an isolated node. All lists are
	// sub-slices of one shared array with cap == len, so an append to one
	// copies instead of writing into the next node's list.
	Neighbors [][]NodeID
}

// Generate places nodes per cfg and returns a connected deployment.
// It re-samples with derived seeds until the unit-disk graph is connected.
func Generate(cfg Config) (*Deployment, error) {
	return GenerateParallel(cfg, 1)
}

// GenerateParallel is Generate with the neighbor-list scan spread over
// the given number of workers. The resulting deployment is identical for
// any worker count (workers only split disjoint per-node writes), so
// callers may pick the count freely without affecting reproducibility.
// The worker count is deliberately not part of Config: configs act as
// cache keys for shared deployments.
//
// Connectivity is decided on the grid index alone (grid.flood), so the
// neighbor lists are built exactly once, after the last node has moved:
// a rejected placement and the positions repair moves away from never
// get lists.
func GenerateParallel(cfg Config, workers int) (*Deployment, error) {
	if cfg.Nodes <= 0 {
		return nil, fmt.Errorf("topology: need at least one node, got %d", cfg.Nodes)
	}
	if cfg.Range <= 0 {
		return nil, fmt.Errorf("topology: non-positive range %g", cfg.Range)
	}
	retries := cfg.MaxRetries
	if retries == 0 {
		retries = 50
	}
	var g grid
	if cfg.Repair {
		d := place(cfg, cfg.Seed)
		d.repair(&g, cfg.Seed)
		d.link(&g, workers)
		return d, nil
	}
	for attempt := 0; attempt < retries; attempt++ {
		d := place(cfg, cfg.Seed+int64(attempt)*1_000_003)
		if g.connected(d) {
			d.link(&g, workers)
			return d, nil
		}
	}
	return nil, fmt.Errorf("topology: no connected placement of %d nodes in %.0fx%.0f after %d attempts (density too low?)",
		cfg.Nodes, cfg.Area.Width(), cfg.Area.Height(), retries)
}

// repair makes the placement connected by moving as few nodes as it
// can, deterministically, and leaves g indexing the final positions for
// the caller to build the neighbor lists from.
//
// Normally the base station sits in the largest component and a handful
// of stragglers are relocated into the radio disk of a reachable node
// (chosen by a seeded RNG). One pass suffices: each relocated node lands
// within range of an already-reachable node, and may itself anchor later
// relocations.
//
// When the base station is NOT in the largest component — typically a
// corner base station with no node in range — relocating "everything it
// cannot reach" would pile the whole network into a few overlapping
// radio disks around it. The base station is therefore first bridged to
// the largest component (bridgeBase), and only what is still unreachable
// after that is relocated.
func (d *Deployment) repair(g *grid, seed int64) {
	g.index(d)
	label, size := g.components(d)
	if d.bridgeBase(label, size) {
		g.index(d)
		label, _ = g.components(d)
	}
	base := label[BaseStation]
	// Every node ends up an anchor: the reachable ones now, each
	// relocated one as it lands.
	anchors := make([]NodeID, 0, d.N())
	var moved bool
	for id := 0; id < d.N(); id++ {
		if label[id] == base {
			anchors = append(anchors, NodeID(id))
		}
	}
	rng := rand.New(rand.NewSource(seed ^ 0x5eed1e55))
	for id := 0; id < d.N(); id++ {
		if label[id] == base {
			continue
		}
		a := d.Pos[anchors[rng.Intn(len(anchors))]]
		angle := 2 * math.Pi * rng.Float64()
		// sqrt for an area-uniform radius; 0.95 keeps a margin so the
		// link survives floating-point distance rounding.
		radius := 0.95 * d.Range * math.Sqrt(rng.Float64())
		p := geom.Point{X: a.X + radius*math.Cos(angle), Y: a.Y + radius*math.Sin(angle)}
		// Clamping into the area only moves the point closer to the
		// in-area anchor, so it stays within range.
		p.X = math.Min(math.Max(p.X, d.Area.MinX), d.Area.MaxX)
		p.Y = math.Min(math.Max(p.Y, d.Area.MinY), d.Area.MaxY)
		d.Pos[id] = p
		anchors = append(anchors, NodeID(id))
		moved = true
	}
	if moved {
		g.index(d)
	}
}

// bridgeBase connects the base station to the largest component when it
// is not already part of it: the sensor nodes nearest the base station
// are moved onto the segment from the base station to the component's
// nearest node, evenly spaced at most 0.9·Range apart (the margin keeps
// the links through floating-point distance rounding). It reports
// whether it moved anything; the caller re-indexes the grid.
// Nodes taken out of the large component leave it at most a few
// stragglers, which the caller's relocation pass picks up.
func (d *Deployment) bridgeBase(label []int32, size []int) bool {
	largest := label[BaseStation]
	for c := range size {
		if size[c] > size[largest] {
			largest = int32(c)
		}
	}
	if largest == label[BaseStation] {
		return false
	}
	base := d.Pos[BaseStation]
	target, best := NodeID(-1), math.Inf(1)
	for id := 1; id < d.N(); id++ {
		if label[id] == largest {
			if d2 := geom.Dist2(base, d.Pos[id]); d2 < best {
				target, best = NodeID(id), d2
			}
		}
	}
	end := d.Pos[target]
	segments := int(math.Ceil(math.Sqrt(best) / (0.9 * d.Range)))
	if segments < 2 {
		segments = 2 // out of range by a rounding error: one relay still
	}
	// The segments-1 relays are the nodes nearest the base station
	// (other than the target), nearest first; ties go to the lower id.
	relays := make([]NodeID, 0, segments-1)
	taken := make(map[NodeID]bool, segments)
	taken[target] = true
	for len(relays) < segments-1 && len(relays) < d.N()-2 {
		pick, pickD2 := NodeID(-1), math.Inf(1)
		for id := 1; id < d.N(); id++ {
			if !taken[NodeID(id)] {
				if d2 := geom.Dist2(base, d.Pos[id]); d2 < pickD2 {
					pick, pickD2 = NodeID(id), d2
				}
			}
		}
		taken[pick] = true
		relays = append(relays, pick)
	}
	for j, id := range relays {
		f := float64(j+1) / float64(segments)
		d.Pos[id] = geom.Point{X: base.X + f*(end.X-base.X), Y: base.Y + f*(end.Y-base.Y)}
	}
	return len(relays) > 0
}

// place draws the positions of a placement; the caller decides
// connectivity and builds the neighbor lists.
func place(cfg Config, seed int64) *Deployment {
	rng := rand.New(rand.NewSource(seed))
	pos := make([]geom.Point, cfg.Nodes+1)
	switch cfg.Base {
	case BaseCenter:
		pos[0] = cfg.Area.Center()
	default:
		pos[0] = cfg.Area.Corner()
	}
	for i := 1; i <= cfg.Nodes; i++ {
		pos[i] = cfg.Area.Lerp(rng.Float64(), rng.Float64())
	}
	return &Deployment{Pos: pos, Range: cfg.Range, Area: cfg.Area}
}

// grid is the uniform-grid index of a placement as a flat counting-sort
// bucket layout — cell index per node, prefix sums, one contiguous node
// array and a cell-ordered copy of the positions — instead of a map of
// slices: two passes over the nodes, no distance test, and a fixed
// number of allocations independent of the cell count. Cells are Range
// wide, so a node's neighbours all lie in its 3×3 block of cells; the
// three cells of one grid row are adjacent in the layout, so that block
// is three contiguous ranges (rowsOf). Connectivity (flood) and the
// neighbor lists (link) are both read off it. Re-indexing after nodes
// move reuses the storage, as does the scratch flood labels with.
type grid struct {
	cols, rows int
	cellOf     []int32
	starts     []int32
	cursor     []int32
	cellNodes  []NodeID
	cellPos    []geom.Point
	label      []int32
	stack      []NodeID
}

// sized returns s resliced to n, or a new slice when s is too short.
func sized[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// index (re)builds the grid over d's current positions.
func (g *grid) index(d *Deployment) {
	n := len(d.Pos)
	cell := d.Range
	g.cols = int(d.Area.Width()/cell) + 2
	g.rows = int(d.Area.Height()/cell) + 2
	ncells := g.cols * g.rows
	g.cellOf = sized(g.cellOf, n)
	g.starts = sized(g.starts, ncells+1)
	clear(g.starts)
	for i, p := range d.Pos {
		cx := int((p.X - d.Area.MinX) / cell)
		cy := int((p.Y - d.Area.MinY) / cell)
		if cx < 0 {
			cx = 0
		}
		if cy < 0 {
			cy = 0
		}
		if cx >= g.cols {
			cx = g.cols - 1
		}
		if cy >= g.rows {
			cy = g.rows - 1
		}
		ci := int32(cy*g.cols + cx)
		g.cellOf[i] = ci
		g.starts[ci+1]++
	}
	for c := 0; c < ncells; c++ {
		g.starts[c+1] += g.starts[c]
	}
	g.cellNodes = sized(g.cellNodes, n)
	g.cellPos = sized(g.cellPos, n)
	g.cursor = sized(g.cursor, ncells)
	copy(g.cursor, g.starts[:ncells])
	// Ascending node order here means every cell's bucket lists ids
	// ascending, like the append order of the old map grid.
	for i, p := range d.Pos {
		ci := g.cellOf[i]
		g.cellNodes[g.cursor[ci]] = NodeID(i)
		g.cellPos[g.cursor[ci]] = p
		g.cursor[ci]++
	}
}

// rowsOf returns the bucket ranges of the (up to) three grid rows around
// node i's cell, each spanning up to three adjacent cells.
func (g *grid) rowsOf(i int) (lo, hi [3]int32, nr int) {
	ci := int(g.cellOf[i])
	cx, cy := ci%g.cols, ci/g.cols
	x0, x1 := max(cx-1, 0), min(cx+1, g.cols-1)
	for gy := max(cy-1, 0); gy <= min(cy+1, g.rows-1); gy++ {
		lo[nr], hi[nr] = g.starts[gy*g.cols+x0], g.starts[gy*g.cols+x1+1]
		nr++
	}
	return lo, hi, nr
}

// flood gives label c to every unlabelled node reachable from start and
// returns how many it labelled. It tests exactly the pairs the neighbor
// lists are built from, so it reaches what a search over them would.
func (g *grid) flood(d *Deployment, start NodeID, c int32) int {
	r2 := d.Range * d.Range
	label := g.label
	label[start] = c
	stack := append(g.stack[:0], start)
	count := 0
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		count++
		p := d.Pos[u]
		lo, hi, nr := g.rowsOf(int(u))
		for r := 0; r < nr; r++ {
			for k := lo[r]; k < hi[r]; k++ {
				if v := g.cellNodes[k]; label[v] < 0 && geom.Dist2(p, g.cellPos[k]) <= r2 {
					label[v] = c
					stack = append(stack, v)
				}
			}
		}
	}
	g.stack = stack
	return count
}

// resetFlood resets the flood labels for d's nodes and sizes the stack for
// the largest flood.
func (g *grid) resetFlood(d *Deployment) {
	g.label = sized(g.label, d.N())
	for i := range g.label {
		g.label[i] = -1
	}
	g.stack = sized(g.stack, d.N())
}

// components labels every node of the indexed placement with its
// connected component, numbered in the order of each component's lowest
// id, and returns the labels with the component sizes. The labels are
// the grid's scratch: valid until its next flood.
func (g *grid) components(d *Deployment) (label []int32, size []int) {
	g.resetFlood(d)
	for start := 0; start < d.N(); start++ {
		if g.label[start] < 0 {
			size = append(size, g.flood(d, NodeID(start), int32(len(size))))
		}
	}
	return g.label, size
}

// connected indexes d and reports whether every node reaches the base
// station.
func (g *grid) connected(d *Deployment) bool {
	g.index(d)
	g.resetFlood(d)
	return g.flood(d, BaseStation, 0) == d.N()
}

// buildNeighbors fills the neighbor lists using a uniform grid so that
// construction is O(n) at constant density rather than O(n^2).
func (d *Deployment) buildNeighbors() { d.buildNeighborsParallel(1) }

// buildNeighborsParallel indexes the current positions and builds the
// neighbor lists from them on the given workers.
func (d *Deployment) buildNeighborsParallel(workers int) {
	var g grid
	g.index(d)
	d.link(&g, workers)
}

// link builds the neighbor lists from g, which indexes d's positions.
// The scan runs twice over node chunks on the given workers: a count
// pass (the node's own match discounted), then, after a prefix sum, a
// fill pass into one flat array that every list is a capped sub-slice
// of. Every worker writes only its own nodes' counts and list ranges,
// and each list is insertion-sorted the same way regardless of worker
// count, so the result is bit-identical to the sequential build.
func (d *Deployment) link(g *grid, workers int) {
	n := len(d.Pos)
	d.Neighbors = make([][]NodeID, n)
	r2 := d.Range * d.Range
	// off[i+1] first holds node i's count, then the prefix sum makes
	// flat[off[i]:off[i+1]] its list.
	off := make([]int32, n+1)
	count := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			p := d.Pos[i]
			from, to, nr := g.rowsOf(i)
			c := int32(-1) // the node itself is always in range
			for r := 0; r < nr; r++ {
				for _, q := range g.cellPos[from[r]:to[r]] {
					if geom.Dist2(p, q) <= r2 {
						c++
					}
				}
			}
			off[i+1] = c
		}
	}
	var flat []NodeID
	fill := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			a, b := off[i], off[i+1]
			if a == b {
				continue // an isolated node keeps a nil list
			}
			p := d.Pos[i]
			from, to, nr := g.rowsOf(i)
			w := a
			for r := 0; r < nr; r++ {
				for k := from[r]; k < to[r]; k++ {
					if geom.Dist2(p, g.cellPos[k]) <= r2 && int(g.cellNodes[k]) != i {
						flat[w] = g.cellNodes[k]
						w++
					}
				}
			}
			nb := flat[a:b:b]
			sortIDs(nb)
			d.Neighbors[i] = nb
		}
	}
	if n < 4096 {
		workers = 1
	}
	chunked(n, workers, count)
	for i := 1; i <= n; i++ {
		off[i] += off[i-1]
	}
	flat = make([]NodeID, off[n])
	chunked(n, workers, fill)
}

// chunked runs body over [0, n) split into one contiguous chunk per
// worker and waits for all of them; one worker runs it in place.
func chunked(n, workers int, body func(lo, hi int)) {
	if workers <= 1 {
		body(0, n)
		return
	}
	var wg sync.WaitGroup
	chunk := (n + workers - 1) / workers
	for lo := 0; lo < n; lo += chunk {
		hi := min(lo+chunk, n)
		wg.Add(1)
		go func() {
			defer wg.Done()
			body(lo, hi)
		}()
	}
	wg.Wait()
}

func sortIDs(ids []NodeID) {
	// Insertion sort: neighbor lists are short (typically 6-15 entries).
	for i := 1; i < len(ids); i++ {
		for j := i; j > 0 && ids[j] < ids[j-1]; j-- {
			ids[j], ids[j-1] = ids[j-1], ids[j]
		}
	}
}

// N returns the total number of nodes including the base station.
func (d *Deployment) N() int { return len(d.Pos) }

// AvgDegree returns the mean neighborhood size over all nodes.
func (d *Deployment) AvgDegree() float64 {
	var sum int
	for _, nb := range d.Neighbors {
		sum += len(nb)
	}
	return float64(sum) / float64(d.N())
}

// IsNeighbor reports whether a and b are within communication range. It
// is the test every neighbor list is built from, so it answers exactly
// what a search of a's list would, without the scan.
func (d *Deployment) IsNeighbor(a, b NodeID) bool {
	return a != b && geom.Dist2(d.Pos[a], d.Pos[b]) <= d.Range*d.Range
}

// Line builds a path deployment: the base station at one end and n
// sensor nodes spaced `spacing` meters apart with the given range, so
// node i talks exactly to i-1 and i+1 when spacing < range < 2*spacing.
// Deterministic topologies like this make protocol behaviour exactly
// predictable in tests.
func Line(n int, spacing, rng float64) *Deployment {
	pos := make([]geom.Point, n+1)
	for i := range pos {
		pos[i] = geom.Point{X: float64(i) * spacing, Y: 1}
	}
	d := &Deployment{
		Pos:   pos,
		Range: rng,
		Area:  geom.Rect{MinX: 0, MinY: 0, MaxX: float64(n)*spacing + 1, MaxY: 2},
	}
	d.buildNeighbors()
	return d
}

// Grid builds a cols x rows lattice deployment with the given spacing;
// the base station replaces the corner node at (0,0).
func Grid(cols, rows int, spacing, rng float64) *Deployment {
	pos := make([]geom.Point, 0, cols*rows)
	for y := 0; y < rows; y++ {
		for x := 0; x < cols; x++ {
			pos = append(pos, geom.Point{X: float64(x) * spacing, Y: float64(y) * spacing})
		}
	}
	d := &Deployment{
		Pos:   pos,
		Range: rng,
		Area: geom.Rect{
			MinX: 0, MinY: 0,
			MaxX: float64(cols-1)*spacing + 1, MaxY: float64(rows-1)*spacing + 1,
		},
	}
	d.buildNeighbors()
	return d
}

// ScaledArea returns a square area for n nodes that keeps the node density
// of the paper's default setting (1500 nodes on 1050x1050 m).
func ScaledArea(n int) geom.Rect {
	const refNodes, refSide = 1500.0, 1050.0
	side := refSide * math.Sqrt(float64(n)/refNodes)
	return geom.Square(side)
}
