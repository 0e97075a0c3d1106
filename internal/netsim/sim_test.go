package netsim

import (
	"slices"
	"testing"
	"unsafe"

	"sensjoin/internal/metrics"
)

func TestEventOrdering(t *testing.T) {
	s := NewSim()
	var order []int
	s.Schedule(3, func() { order = append(order, 3) })
	s.Schedule(1, func() { order = append(order, 1) })
	s.Schedule(2, func() { order = append(order, 2) })
	s.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order = %v, want [1 2 3]", order)
	}
	if s.Now() != 3 {
		t.Fatalf("Now = %g, want 3", s.Now())
	}
	if s.Steps() != 3 {
		t.Fatalf("Steps = %d, want 3", s.Steps())
	}
}

func TestFIFOAtEqualTimes(t *testing.T) {
	s := NewSim()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		s.Schedule(5, func() { order = append(order, i) })
	}
	s.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("equal-time events out of scheduling order: %v", order)
		}
	}
}

func TestAfterAndNesting(t *testing.T) {
	s := NewSim()
	var hits []Time
	s.After(1, func() {
		hits = append(hits, s.Now())
		s.After(2, func() { hits = append(hits, s.Now()) })
	})
	s.Run()
	if len(hits) != 2 || hits[0] != 1 || hits[1] != 3 {
		t.Fatalf("hits = %v, want [1 3]", hits)
	}
}

func TestSchedulePastPanics(t *testing.T) {
	s := NewSim()
	s.Schedule(5, func() {
		defer func() {
			if recover() == nil {
				t.Error("expected panic when scheduling in the past")
			}
		}()
		s.Schedule(1, func() {})
	})
	s.Run()
}

func TestRunUntil(t *testing.T) {
	s := NewSim()
	var ran []Time
	for _, at := range []Time{1, 2, 3, 4} {
		at := at
		s.Schedule(at, func() { ran = append(ran, at) })
	}
	s.RunUntil(2.5)
	if len(ran) != 2 {
		t.Fatalf("RunUntil(2.5) ran %v", ran)
	}
	if s.Now() != 2.5 {
		t.Fatalf("Now = %g, want 2.5", s.Now())
	}
	if s.Pending() != 2 {
		t.Fatalf("Pending = %d, want 2", s.Pending())
	}
	s.Run()
	if len(ran) != 4 {
		t.Fatalf("Run after RunUntil should finish the rest: %v", ran)
	}
}

// A coordinator event runs before the node events of its instant,
// whenever either was scheduled, and node events of one instant run in
// (scheduling node, its scheduling order) order.
func TestCoordinatorEventsRunBeforeNodeEvents(t *testing.T) {
	s := NewSim()
	var order []string
	note := func(tag string) func() { return func() { order = append(order, tag) } }
	s.ScheduleNode(3, 1, 1, note("3a"))
	s.ScheduleNode(2, 1, 1, note("2a"))
	s.ScheduleNode(3, 1, 1, note("3b"))
	s.Schedule(1, note("c1"))
	s.Schedule(0.5, func() {
		order = append(order, "c0")
		s.Schedule(1, note("c2"))
		s.ScheduleNode(0, 1, 1, note("0a"))
	})
	s.Run()
	want := []string{"c0", "c1", "c2", "0a", "2a", "3a", "3b"}
	if !slices.Equal(order, want) {
		t.Fatalf("execution order %v, want %v", order, want)
	}
}

// The event loop is the simulator's hottest path; the typed heap must
// not box events through interface{} (container/heap cost one
// allocation per Push). With the backing arrays pre-grown and a shared
// callback, a schedule/run cycle of node and coordinator events performs
// zero allocations.
func TestEventLoopAllocs(t *testing.T) {
	s := NewSim()
	fn := func() {}
	cycle := func() {
		for i := 0; i < 256; i++ {
			s.ScheduleNode(NodeID(i%5), NodeID(i%3), s.Now()+float64(i%7), fn)
			if i%16 == 0 {
				s.After(float64(i%7), fn)
			}
		}
		s.Run()
	}
	cycle() // warm-up grows the queues' backing arrays to steady state
	if allocs := testing.AllocsPerRun(50, cycle); allocs > 0 {
		t.Fatalf("event loop: %.1f allocs per schedule/run cycle, want 0", allocs)
	}
}

// A warm ScheduleNodes allocates nothing: its entries are batch records
// taken from the scheduling region's free list, not a closure per call.
// The queue entry stays a 24-byte closure event.
func TestScheduleNodesAllocsOneRegion(t *testing.T) {
	s := NewSim()
	ids := []NodeID{1, 2, 3, 4}
	fn := func(NodeID) {}
	s.ScheduleNodes(0, ids, 1, fn)
	s.Run()
	allocs := testing.AllocsPerRun(50, func() {
		s.ScheduleNodes(0, ids, s.Now()+1, fn)
		s.Run()
	})
	if allocs != 0 {
		t.Fatalf("ScheduleNodes on one region: %.1f allocs per call, want 0", allocs)
	}
	if size := unsafe.Sizeof(event{}); size != 24 {
		t.Fatalf("event is %d bytes, want 24: a time, a key and a closure", size)
	}
}

// On two regions a warm wave allocates nothing either, also when a node
// event schedules a batch into the other region: the record that ran
// away from home goes back to its home's free list at the barrier. And
// the records do not accumulate — however many rounds run, the free
// lists hold what one round used. One worker runs both regions: a
// window's goroutines are the loop's cost, not ScheduleNodes' (the
// parallel spelling is TestScheduleNodesMatchesPerNodeScheduling's).
func TestScheduleNodesAllocsTwoRegions(t *testing.T) {
	s := NewSim()
	regionOf := []int32{0, 0, 1, 0, 1, 1}
	s.EnableSharding(regionOf, 2, waveLookahead, 1)
	wave := []NodeID{1, 2, 3, 4, 5} // both regions
	away := []NodeID{4, 5}          // region 1 only
	hits := make([]int, len(regionOf))
	onAway := func(id NodeID) { hits[id]++ }
	fn := func(id NodeID) {
		hits[id]++
		if id == 1 { // a region-0 node event schedules into region 1
			s.ScheduleNodes(id, away, s.NodeNow(id)+2*waveLookahead, onAway)
		}
	}
	round := func() {
		s.ScheduleNodes(0, wave, s.Now()+1, fn)
		s.Run()
	}
	round()
	round()
	records := func() (n int) {
		for i := range s.regions {
			r := &s.regions[i]
			if len(r.spent) != 0 {
				t.Fatalf("region %d holds %d spent records after a run", i, len(r.spent))
			}
			n += len(r.free)
		}
		return n
	}
	warm := records()
	allocs := testing.AllocsPerRun(50, round)
	if allocs != 0 {
		t.Fatalf("ScheduleNodes on two regions: %.1f allocs per round, want 0", allocs)
	}
	if got := records(); got != warm {
		t.Fatalf("the free lists hold %d records after 50 more rounds, %d before", got, warm)
	}
	// Two rounds above, AllocsPerRun's warm-up and 50: node 4 runs in the
	// wave and in the batch node 1 schedules.
	if hits[1] != 53 || hits[4] != 2*53 {
		t.Fatalf("node 1 ran %d times, node 4 %d, want 53 and %d", hits[1], hits[4], 2*53)
	}
	for i := range s.regions {
		for _, b := range s.regions[i].free {
			if b.ids != nil || b.fn != nil {
				t.Fatalf("an idle record of region %d still holds its ids or fn", i)
			}
		}
	}
}

// The typed heap must preserve the (t, seq) execution order: equal
// times run in scheduling order.
func TestHeapOrderWithTies(t *testing.T) {
	s := NewSim()
	var got []int
	times := []float64{3, 1, 2, 1, 3, 1, 2, 0, 3, 0}
	for i, tm := range times {
		i := i
		s.Schedule(tm, func() { got = append(got, i) })
	}
	s.Run()
	want := []int{7, 9, 1, 3, 5, 2, 6, 0, 4, 8}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("execution order %v, want %v", got, want)
		}
	}
}

// Metered runs batch the event counter every simMetricsSample events but
// must still report the exact total: the remainder is flushed when the
// loop drains.
func TestMeteredEventCountExact(t *testing.T) {
	reg := metrics.New()
	s := NewSim()
	s.SetMetrics(NewSimMetrics(reg))
	fn := func() {}
	const n = simMetricsSample*3 + 17 // force a non-empty remainder
	for i := 0; i < n; i++ {
		s.Schedule(float64(i), fn)
	}
	s.Run()
	got := reg.Snapshot()["sensjoin_netsim_events_total"]
	if got != int64(n) {
		t.Fatalf("events_total = %v, want %d", got, n)
	}
}

// BenchmarkEventLoop guards the hot loop (node events on one region) in
// both configurations: the unmetered path must stay allocation-free and
// untouched by the observability layer, and the metered path must
// amortize its counter updates over simMetricsSample events.
func BenchmarkEventLoop(b *testing.B) {
	run := func(b *testing.B, s *Sim) {
		fn := func() {}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for j := 0; j < 256; j++ {
				s.ScheduleNode(NodeID(j%5), NodeID(j%3), s.Now()+float64(j%7), fn)
			}
			s.Run()
		}
	}
	b.Run("unmetered", func(b *testing.B) {
		run(b, NewSim())
	})
	b.Run("metered", func(b *testing.B) {
		s := NewSim()
		s.SetMetrics(NewSimMetrics(metrics.New()))
		run(b, s)
	})
}

// Reset rewinds an idle simulator so that the next run repeats a new
// simulator's event times and tie order, keeps the heap's storage, and
// refuses while events are pending.
func TestSimReset(t *testing.T) {
	s := NewSim()
	var order []int
	load := func() {
		order = order[:0]
		for i := 0; i < 4; i++ {
			s.Schedule(0.25, func() { order = append(order, i) }) // equal times: seq decides
		}
		s.Run()
	}
	load()
	first := append([]int(nil), order...)
	s.Schedule(s.Now()+1, func() {})
	if s.Reset() {
		t.Fatal("Reset with an event pending")
	}
	if s.Now() != 0.25 || s.Steps() != 4 {
		t.Fatalf("a refused Reset moved the clock to %g, steps to %d", s.Now(), s.Steps())
	}
	s.Run()
	heapCap := cap(s.coord)
	if !s.Reset() {
		t.Fatal("Reset of an idle simulator refused")
	}
	if s.Now() != 0 || s.Steps() != 0 || s.coordSeq != 0 || cap(s.coord) != heapCap {
		t.Fatalf("after Reset: now %g, steps %d, seq %d, queue capacity %d (was %d)", s.Now(), s.Steps(), s.coordSeq, cap(s.coord), heapCap)
	}
	load() // scheduling at 0.25 would panic had the clock stayed at 1.25
	if s.Now() != 0.25 || len(order) != len(first) {
		t.Fatalf("rerun ended at %g with %v", s.Now(), order)
	}
	for i := range first {
		if order[i] != first[i] {
			t.Fatalf("rerun order %v, first run %v", order, first)
		}
	}
}
