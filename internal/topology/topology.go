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
	if cfg.Repair {
		d := place(cfg, cfg.Seed, workers)
		d.repair(cfg.Seed, workers)
		return d, nil
	}
	for attempt := 0; attempt < retries; attempt++ {
		d := place(cfg, cfg.Seed+int64(attempt)*1_000_003, workers)
		if d.Connected() {
			return d, nil
		}
	}
	return nil, fmt.Errorf("topology: no connected placement of %d nodes in %.0fx%.0f after %d attempts (density too low?)",
		cfg.Nodes, cfg.Area.Width(), cfg.Area.Height(), retries)
}

// repair makes the placement connected by moving as few nodes as it
// can, deterministically, and rebuilds the neighbor lists.
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
func (d *Deployment) repair(seed int64, workers int) {
	label, size := d.components()
	if d.bridgeBase(label, size) {
		d.buildNeighborsParallel(workers)
		label, _ = d.components()
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
		d.buildNeighborsParallel(workers)
	}
}

// components labels every node with the index of its connected
// component and returns the labels with the component sizes.
func (d *Deployment) components() (label []int32, size []int) {
	label = make([]int32, d.N())
	for i := range label {
		label[i] = -1
	}
	var queue []NodeID
	for start := 0; start < d.N(); start++ {
		if label[start] >= 0 {
			continue
		}
		c := int32(len(size))
		label[start] = c
		queue = append(queue[:0], NodeID(start))
		count := 0
		for len(queue) > 0 {
			u := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			count++
			for _, v := range d.Neighbors[u] {
				if label[v] < 0 {
					label[v] = c
					queue = append(queue, v)
				}
			}
		}
		size = append(size, count)
	}
	return label, size
}

// bridgeBase connects the base station to the largest component when it
// is not already part of it: the sensor nodes nearest the base station
// are moved onto the segment from the base station to the component's
// nearest node, evenly spaced at most 0.9·Range apart (the margin keeps
// the links through floating-point distance rounding). It reports
// whether it moved anything; the caller rebuilds the neighbor lists.
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

func place(cfg Config, seed int64, workers int) *Deployment {
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
	d := &Deployment{Pos: pos, Range: cfg.Range, Area: cfg.Area}
	d.buildNeighborsParallel(workers)
	return d
}

// buildNeighbors fills the neighbor lists using a uniform grid so that
// construction is O(n) at constant density rather than O(n^2).
func (d *Deployment) buildNeighbors() { d.buildNeighborsParallel(1) }

// buildNeighborsParallel builds the grid as a flat counting-sort bucket
// layout — cell index per node, prefix sums, one contiguous node array —
// instead of a map of slices: two passes over the nodes and a fixed
// number of allocations, independent of the cell count. Because the
// three cells of one grid row are adjacent in that layout, a node's 3×3
// neighbourhood is three contiguous ranges of a cell-ordered copy of the
// positions, and the scan walks those instead of nine buckets.
//
// The scan runs twice over node chunks on the given workers: a count
// pass (the node's own match discounted), then, after a prefix sum, a
// fill pass into one flat array that every list is a capped sub-slice
// of. Every worker writes only its own nodes' counts and list ranges,
// and each list is insertion-sorted the same way regardless of worker
// count, so the result is bit-identical to the sequential build.
func (d *Deployment) buildNeighborsParallel(workers int) {
	n := len(d.Pos)
	d.Neighbors = make([][]NodeID, n)
	cell := d.Range
	cols := int(d.Area.Width()/cell) + 2
	rows := int(d.Area.Height()/cell) + 2
	ncells := cols * rows
	cellOf := make([]int32, n)
	starts := make([]int32, ncells+1)
	for i, p := range d.Pos {
		cx := int((p.X - d.Area.MinX) / cell)
		cy := int((p.Y - d.Area.MinY) / cell)
		if cx < 0 {
			cx = 0
		}
		if cy < 0 {
			cy = 0
		}
		if cx >= cols {
			cx = cols - 1
		}
		if cy >= rows {
			cy = rows - 1
		}
		ci := int32(cy*cols + cx)
		cellOf[i] = ci
		starts[ci+1]++
	}
	for c := 0; c < ncells; c++ {
		starts[c+1] += starts[c]
	}
	cellNodes := make([]NodeID, n)
	cellPos := make([]geom.Point, n)
	cursor := make([]int32, ncells)
	copy(cursor, starts[:ncells])
	// Ascending node order here means every cell's bucket lists ids
	// ascending, like the append order of the old map grid.
	for i, p := range d.Pos {
		ci := cellOf[i]
		cellNodes[cursor[ci]] = NodeID(i)
		cellPos[cursor[ci]] = p
		cursor[ci]++
	}
	r2 := d.Range * d.Range
	// rowsOf returns node i's position and the bucket ranges of the
	// (up to) three grid rows around its cell, each spanning up to three
	// adjacent cells.
	rowsOf := func(i int) (p geom.Point, lo, hi [3]int32, nr int) {
		ci := int(cellOf[i])
		cx, cy := ci%cols, ci/cols
		x0, x1 := max(cx-1, 0), min(cx+1, cols-1)
		for gy := max(cy-1, 0); gy <= min(cy+1, rows-1); gy++ {
			lo[nr], hi[nr] = starts[gy*cols+x0], starts[gy*cols+x1+1]
			nr++
		}
		return d.Pos[i], lo, hi, nr
	}
	// off[i+1] first holds node i's count, then the prefix sum makes
	// flat[off[i]:off[i+1]] its list.
	off := make([]int32, n+1)
	count := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			p, from, to, nr := rowsOf(i)
			c := int32(-1) // the node itself is always in range
			for r := 0; r < nr; r++ {
				for _, q := range cellPos[from[r]:to[r]] {
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
			p, from, to, nr := rowsOf(i)
			w := a
			for r := 0; r < nr; r++ {
				for k := from[r]; k < to[r]; k++ {
					if geom.Dist2(p, cellPos[k]) <= r2 && int(cellNodes[k]) != i {
						flat[w] = cellNodes[k]
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

// Connected reports whether every node can reach the base station.
func (d *Deployment) Connected() bool {
	seen := make([]bool, d.N())
	queue := []NodeID{BaseStation}
	seen[BaseStation] = true
	count := 1
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, v := range d.Neighbors[u] {
			if !seen[v] {
				seen[v] = true
				count++
				queue = append(queue, v)
			}
		}
	}
	return count == d.N()
}

// AvgDegree returns the mean neighborhood size over all nodes.
func (d *Deployment) AvgDegree() float64 {
	var sum int
	for _, nb := range d.Neighbors {
		sum += len(nb)
	}
	return float64(sum) / float64(d.N())
}

// IsNeighbor reports whether a and b are within communication range.
func (d *Deployment) IsNeighbor(a, b NodeID) bool {
	for _, v := range d.Neighbors[a] {
		if v == b {
			return true
		}
		if v > b {
			return false
		}
	}
	return false
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
