package netsim

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"sensjoin/internal/metrics"
)

const waveLookahead = 0.001

// waveSim returns a simulator over n nodes, sharded into the given number
// of regions by a seeded random assignment when shards > 1: ScheduleNodes
// must not care where the region boundaries fall.
func waveSim(n, shards int, seed int64) (*Sim, []int32) {
	sim := NewSim()
	regionOf := make([]int32, n)
	if shards > 1 {
		rng := rand.New(rand.NewSource(seed))
		for i := 1; i < n; i++ {
			regionOf[i] = int32(rng.Intn(shards))
		}
		sim.EnableSharding(regionOf, shards, waveLookahead, shards)
	}
	return sim, regionOf
}

// waveRun executes a seeded random program of batches and lone events,
// many of them at equal times, and returns what ran where: one log per
// region (a region's worker is the only writer of its log) and the step
// count. With batch unset every ScheduleNodes call is spelled as the
// per-node ScheduleNode calls it stands for, back to back.
func waveRun(seed int64, shards int, batch bool) ([][]string, int64) {
	const n = 64
	sim, regionOf := waveSim(n, shards, seed)
	logs := make([][]string, max(shards, 1))
	nodes := func(from NodeID, ids []NodeID, t Time, fn func(NodeID)) {
		if batch {
			sim.ScheduleNodes(from, ids, t, fn)
			return
		}
		for _, id := range ids {
			sim.ScheduleNode(from, id, t, func() { fn(id) })
		}
	}
	var visit func(tag, depth int) func(NodeID)
	visit = func(tag, depth int) func(NodeID) {
		return func(id NodeID) {
			now := sim.NodeNow(id)
			reg := regionOf[id]
			logs[reg] = append(logs[reg], fmt.Sprintf("%.6f %d %d", now, id, tag))
			// What a handler schedules depends on (tag, id) only — never on
			// a shared random stream, whose draw order the workers would race
			// for.
			h := (uint64(id)*2654435761 + uint64(tag)*40503) >> 3
			if depth >= 2 || h%3 != 0 {
				return
			}
			ids := make([]NodeID, h%7)
			for j := range ids {
				ids[j] = NodeID((int(id)*7 + j*13 + tag) % n)
			}
			at := now + 0.005*Time(1+h%2) // lands on other events' times
			lone := NodeID((int(id) + tag) % n)
			child := tag*10 + depth + 1
			sim.ScheduleNode(id, lone, at, func() { visit(child+1000, 2)(lone) })
			nodes(id, ids, at, visit(child, depth+1))
			sim.ScheduleNode(id, lone, at, func() { visit(child+2000, 2)(lone) })
		}
	}
	rng := rand.New(rand.NewSource(seed))
	for tag := 0; tag < 40; tag++ {
		t := 0.01 * Time(1+rng.Intn(4))
		if rng.Intn(3) == 0 {
			id := NodeID(rng.Intn(n))
			sim.ScheduleNode(0, id, t, func() { visit(tag, 0)(id) })
			continue
		}
		ids := make([]NodeID, rng.Intn(20)) // unsorted, repeats allowed
		for j := range ids {
			ids[j] = NodeID(rng.Intn(n))
		}
		nodes(0, ids, t, visit(tag, 0))
	}
	sim.Run()
	return logs, sim.Steps()
}

// The contract of ScheduleNodes: the (t, id) execution log and the step
// count of the per-node spelling, on one region and under any
// region count — with unrelated events at equal times before and after
// the batch, and with batches scheduled from inside a handler into other
// regions.
func TestScheduleNodesMatchesPerNodeScheduling(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		var oneRegionSteps int64
		for _, shards := range []int{1, 2, 4, 8} {
			want, wantSteps := waveRun(seed, shards, false)
			got, gotSteps := waveRun(seed, shards, true)
			if gotSteps != wantSteps {
				t.Fatalf("seed %d, %d regions: %d steps batched, %d per node", seed, shards, gotSteps, wantSteps)
			}
			for reg := range want {
				if !slices.Equal(got[reg], want[reg]) {
					t.Fatalf("seed %d, %d regions: region %d ran\n%v\nbatched, per node\n%v", seed, shards, reg, got[reg], want[reg])
				}
			}
			if shards == 1 {
				oneRegionSteps = gotSteps
				if len(got[0]) < 60 {
					t.Fatalf("seed %d: the program ran only %d handlers", seed, len(got[0]))
				}
			} else if gotSteps != oneRegionSteps {
				t.Fatalf("seed %d: %d steps at %d regions, %d on one", seed, gotSteps, shards, oneRegionSteps)
			}
		}
	}
}

// A batch is one queue entry per region and as many steps as it has
// nodes; RunUntil(t) includes a batch exactly at t, an empty batch is
// nothing at all, Reset refuses while one is pending, and the live event
// counter follows the steps.
func TestScheduleNodesIsOneEntryAndManySteps(t *testing.T) {
	ids := []NodeID{1, 2, 3, 4, 5, 6, 7}
	for _, shards := range []int{1, 2} {
		sim, regionOf := waveSim(8, shards, 3)
		regions := map[int32]bool{}
		for _, id := range ids {
			regions[regionOf[id]] = true
		}
		if shards == 2 && len(regions) != 2 {
			t.Fatal("the fixture's nodes all fell into one region")
		}

		sim.ScheduleNodes(0, nil, 1, func(NodeID) { t.Error("an empty batch ran") })
		if sim.Pending() != 0 {
			t.Fatalf("%d regions: an empty batch left %d entries", shards, sim.Pending())
		}

		hits := make([]int, 8) // per node: the regions' workers run side by side
		sim.ScheduleNodes(0, ids, 1, func(id NodeID) { hits[id]++ })
		if got := sim.Pending(); got != len(regions) {
			t.Fatalf("%d regions: Pending = %d with one batch queued, want %d", shards, got, len(regions))
		}
		if sim.Reset() {
			t.Fatalf("%d regions: Reset with a batch pending", shards)
		}
		sim.RunUntil(0.5)
		if slices.Max(hits) != 0 {
			t.Fatalf("%d regions: RunUntil(0.5) ran a batch due at 1", shards)
		}
		sim.RunUntil(1)
		if !slices.Equal(hits, []int{0, 1, 1, 1, 1, 1, 1, 1}) || sim.Steps() != int64(len(ids)) || sim.Now() != 1 {
			t.Fatalf("%d regions: ran %v, %d steps, now %g", shards, hits, sim.Steps(), sim.Now())
		}
	}

	for _, shards := range []int{1, 2, 4} {
		sim, _ := waveSim(8, shards, 3)
		reg := metrics.New()
		sim.SetMetrics(NewSimMetrics(reg))
		hits := make([]int, 8) // per node: the regions' workers run side by side
		sim.ScheduleNodes(0, ids, 1, func(id NodeID) { hits[id]++ })
		sim.ScheduleNodes(0, ids, 2, func(id NodeID) { hits[id]++ })
		sim.RunUntil(1) // a batch exactly at the bound runs
		if !slices.Equal(hits, []int{0, 1, 1, 1, 1, 1, 1, 1}) || sim.Steps() != int64(len(ids)) || sim.Now() != 1 {
			t.Fatalf("%d regions: RunUntil(1) ran %v, %d steps, now %g", shards, hits, sim.Steps(), sim.Now())
		}
		sim.Run()
		if got := reg.Snapshot()["sensjoin_netsim_events_total"]; got != int64(2*len(ids)) || sim.Steps() != int64(2*len(ids)) {
			t.Fatalf("%d regions: events_total = %v, steps = %d, want %d", shards, got, sim.Steps(), 2*len(ids))
		}
		if !sim.Reset() {
			t.Fatalf("%d regions: Reset of a drained simulator refused", shards)
		}
	}
}

// BenchmarkWaveSchedule is the fixed cost of a collection wave in the
// event queue alone: every node of a 40-level tree gets a deadline, the
// handlers do nothing. One op is one wave.
func BenchmarkWaveSchedule(b *testing.B) {
	for _, n := range []int{1500, 100000} {
		for _, shards := range []int{1, 2} {
			b.Run(fmt.Sprintf("n=%d/regions=%d", n, shards), func(b *testing.B) {
				const depth = 40
				sim := NewSim()
				if shards > 1 {
					regionOf := make([]int32, n)
					for i := range regionOf {
						regionOf[i] = int32(i * shards / n)
					}
					sim.EnableSharding(regionOf, shards, waveLookahead, shards)
				}
				levels := make([][]NodeID, depth)
				for i := 1; i < n; i++ {
					levels[i%depth] = append(levels[i%depth], NodeID(i))
				}
				hits := make([]int32, n)
				fn := func(id NodeID) { hits[id]++ }
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					start := sim.Now()
					for d, ids := range levels {
						sim.ScheduleNodes(0, ids, start+Time(depth-d), fn)
					}
					sim.Run()
				}
				if want := int64(b.N) * int64(n-1); sim.Steps() != want {
					b.Fatalf("%d steps, want %d", sim.Steps(), want)
				}
			})
		}
	}
}
