package topology

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"time"

	"sensjoin/internal/geom"
)

// randomDeployment builds positions without the connectivity check —
// neighbor construction is what is being measured.
func randomDeployment(n int, seed int64) *Deployment {
	rng := rand.New(rand.NewSource(seed))
	area := ScaledArea(n)
	pos := make([]geom.Point, n+1)
	pos[0] = area.Corner()
	for i := 1; i <= n; i++ {
		pos[i] = area.Lerp(rng.Float64(), rng.Float64())
	}
	return &Deployment{Pos: pos, Range: 50, Area: area}
}

// TestBuildNeighborsParallelMatches: the counting-sort layout and the
// parallel scan must reproduce the sequential neighbor lists exactly.
func TestBuildNeighborsParallelMatches(t *testing.T) {
	d1 := randomDeployment(20_000, 3)
	d2 := randomDeployment(20_000, 3)
	d1.buildNeighborsParallel(1)
	d2.buildNeighborsParallel(4)
	if !reflect.DeepEqual(d1.Neighbors, d2.Neighbors) {
		t.Fatal("parallel neighbor lists differ from sequential")
	}
}

// BenchmarkBuildNeighbors measures the flat counting-sort grid at 10k
// and 100k nodes.
func BenchmarkBuildNeighbors(b *testing.B) {
	for _, n := range []int{10_000, 100_000} {
		d := randomDeployment(n, 42)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				d.buildNeighborsParallel(1)
			}
		})
	}
}

// TestBuildNeighborsAllocs pins the build's allocations: a fixed set of
// index arrays and one flat array for every list, however many nodes
// there are, plus on the parallel path each pass's goroutines.
func TestBuildNeighborsAllocs(t *testing.T) {
	d := randomDeployment(10_000, 42)
	for _, workers := range []int{1, 4} {
		limit := 16
		if workers > 1 {
			limit += 2 * 2 * workers // two passes, two per goroutine
		}
		got := testing.AllocsPerRun(5, func() { d.buildNeighborsParallel(workers) })
		if got > float64(limit) {
			t.Errorf("%d workers: %.0f allocations per build, want <= %d", workers, got, limit)
		}
	}
}

// BenchmarkGenerate measures a whole repaired set-up at 100k nodes:
// placement, connectivity on the grid, repair and the one list build.
func BenchmarkGenerate(b *testing.B) {
	cfg := Config{Nodes: 100_000, Area: ScaledArea(100_000), Range: 50, Seed: 42, Repair: true}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := GenerateParallel(cfg, 2); err != nil {
			b.Fatal(err)
		}
	}
}

// TestGenerateAllocs pins what a repaired set-up allocates: one set of
// neighbor lists, the positions and O(n) grid scratch, in a fixed number
// of allocations. Building the lists a second time, as a set-up that
// decided connectivity on them did after repair, breaks the byte bound.
func TestGenerateAllocs(t *testing.T) {
	const nodes = 20_000
	// Seed 1 places four components, so repair moves stragglers and
	// re-indexes its grid.
	cfg := Config{Nodes: nodes, Area: ScaledArea(nodes), Range: 50, Seed: 1, Repair: true}
	for _, workers := range []int{1, 2} {
		var d *Deployment
		run := func() {
			var err error
			if d, err = GenerateParallel(cfg, workers); err != nil {
				t.Fatal(err)
			}
		}
		allocs := testing.AllocsPerRun(3, run)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		run()
		runtime.ReadMemStats(&after)
		lists := 24 * len(d.Neighbors)
		for _, nb := range d.Neighbors {
			lists += 8 * len(nb)
		}
		scratch := int(after.TotalAlloc-before.TotalAlloc) - lists
		t.Logf("%d workers: %.0f allocations, lists %d B, everything else %.1f B per node", workers, allocs, lists, float64(scratch)/float64(d.N()))
		if limit := 40.0 + 4*float64(workers); allocs > limit {
			t.Errorf("%d workers: %.0f allocations per set-up, want <= %.0f", workers, allocs, limit)
		}
		if limit := 100 * d.N(); scratch > limit {
			t.Errorf("%d workers: %d bytes besides the lists, want <= %d (100 per node)", workers, scratch, limit)
		}
	}
}

// TestRepairConnects: a sparse placement that rejection sampling would
// reject must come back fully connected under Repair, with the same
// result for any worker count.
func TestRepairConnects(t *testing.T) {
	cfg := Config{
		Nodes: 2000, Area: ScaledArea(6000), Range: 50, Seed: 5, Repair: true,
	}
	d1, err := GenerateParallel(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !connected(d1) {
		t.Fatal("repaired deployment is not connected")
	}
	d4, err := GenerateParallel(cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(d1.Neighbors, d4.Neighbors) {
		t.Fatal("repaired deployment differs across worker counts")
	}
}

func maxDegree(d *Deployment) int {
	max := 0
	for _, nb := range d.Neighbors {
		if len(nb) > max {
			max = len(nb)
		}
	}
	return max
}

// TestRepairIsolatedBaseStation: placement seed 2 at 100 000 nodes puts
// no node within range of the corner base station. Repair used to treat
// the base station's one-node component as "the network" and relocate
// all 100 000 nodes into a few overlapping radio disks around it, and
// the neighbor scan of that one grid cell is quadratic (no answer after
// 100 s). It must instead bridge the base station to the largest
// component: connected, quickly, with an ordinary degree distribution.
func TestRepairIsolatedBaseStation(t *testing.T) {
	if testing.Short() {
		t.Skip("generates two 100k-node deployments")
	}
	gen := func(seed int64) *Deployment {
		d, err := GenerateParallel(Config{Nodes: 100000, Area: ScaledArea(100000), Range: 50, Seed: seed, Repair: true}, 2)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	start := time.Now()
	d := gen(2)
	if el := time.Since(start); el > 5*time.Second {
		t.Fatalf("seed 2 took %v, want < 5s", el)
	}
	if !connected(d) {
		t.Fatal("seed 2: repaired deployment is not connected")
	}
	if got, ref := maxDegree(d), maxDegree(gen(42)); got > 2*ref {
		t.Fatalf("seed 2: max degree %d, more than twice seed 42's %d", got, ref)
	}
}

// TestRepairBridgesSmallBaseComponent drives the bridge on a hand-built
// placement: a base station with one neighbor, 200 m from a 6x6 block of
// nodes. The bridge must put relays on the segment, move nobody else,
// and leave everything connected without piling nodes up.
func TestRepairBridgesSmallBaseComponent(t *testing.T) {
	pos := []geom.Point{{X: 0, Y: 0}, {X: 10, Y: 0}}
	for i := 0; i < 6; i++ {
		for j := 0; j < 6; j++ {
			pos = append(pos, geom.Point{X: 200 + 40*float64(i), Y: 40 * float64(j)})
		}
	}
	d := &Deployment{Pos: append([]geom.Point(nil), pos...), Range: 50, Area: geom.Rect{MaxX: 400, MaxY: 200}}
	d.buildNeighbors()
	if connected(d) {
		t.Fatal("fixture must start disconnected")
	}
	var g grid
	d.repair(&g, 1)
	d.link(&g, 1)
	if !connected(d) {
		t.Fatal("not connected after repair")
	}
	moved := 0
	for i := range pos {
		if d.Pos[i] != pos[i] {
			moved++
			if d.Pos[i].Y != 0 || d.Pos[i].X <= 0 || d.Pos[i].X >= 200 {
				t.Errorf("node %d moved to %+v, not onto the bridge segment", i, d.Pos[i])
			}
		}
	}
	// 200 m at <= 45 m spacing: 5 segments, 4 relays.
	if moved != 4 {
		t.Errorf("%d nodes moved, want 4 relays", moved)
	}
	if got := maxDegree(d); got > 4 {
		t.Errorf("max degree %d after repair: nodes were piled up", got)
	}
}
