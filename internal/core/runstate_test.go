package core

import (
	"runtime"
	"testing"
	"time"

	"sensjoin/internal/netsim"
	"sensjoin/internal/topology"
)

const runStateSrc = "SELECT A.temp, B.temp, A.hum, B.hum, A.pres, B.pres FROM Sensors A, Sensors B WHERE A.temp - B.temp > 7.5 ONCE"

// collected reports whether the object a finalizer was set on (closing
// done) is gone after a few collections.
func collected(done <-chan struct{}) bool {
	for i := 0; i < 10; i++ {
		runtime.GC()
		select {
		case <-done:
			return true
		case <-time.After(10 * time.Millisecond):
		}
	}
	return false
}

// An idle Runner must not pin the execution it ran last (the daemon
// pools idle runners; X7 holds one at 100k nodes): a handler left
// installed would hold the finished run's node state, plan and Exec. The
// run clears the network's handler and its borrowed slabs on the way
// out, so the Exec is collected while the Runner lives on and the slabs
// it keeps hold no inner slice.
func TestRunnerReleasesFinishedRun(t *testing.T) {
	for _, m := range []Method{NewSENSJoin(), External{}, SemiJoin{}, Mediated{}} {
		r, err := NewRunner(SetupConfig{Nodes: 150, Seed: 42})
		if err != nil {
			t.Fatal(err)
		}
		done := make(chan struct{})
		func() {
			x, err := execSQL(r, runStateSrc, 0)
			if err != nil {
				t.Fatal(err)
			}
			runtime.SetFinalizer(x, func(*Exec) { close(done) })
			if _, err := m.Run(x); err != nil {
				t.Fatal(err)
			}
		}()
		if !collected(done) {
			t.Errorf("%s: the finished execution is still reachable from its idle Runner", m.Name())
		}
		for i, st := range r.scratch.sens[:cap(r.scratch.sens)] {
			if st.fullsIn != nil || st.keysIn != nil || st.finalsIn != nil || st.children != nil || st.proxied != nil {
				t.Fatalf("%s: node %d of the idle sensNode slab still holds a slice", m.Name(), i)
			}
		}
		for i, nd := range r.scratch.wave[:cap(r.scratch.wave)] {
			if nd.children != nil {
				t.Fatalf("%s: node %d of the idle wave slab still holds its children", m.Name(), i)
			}
		}
		runtime.KeepAlive(r)
	}
}

// An event a run leaves queued — a reliable-transport timer, a delivery
// beyond a collection wave's deadline — may hold pointers into the run's
// slab. Such a slab is not handed to the next run: when the event fires
// it writes into memory nobody else was given.
func TestStaleEventCannotReachNextRun(t *testing.T) {
	r, err := NewRunner(SetupConfig{Nodes: 150, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	x, err := execSQL(r, runStateSrc, 0)
	if err != nil {
		t.Fatal(err)
	}
	n := r.Net.N()

	first := borrow(&x.run().sens, n)
	giveBack(x, &x.run().sens, first)
	again := borrow(&x.run().sens, n)
	if &again[0] != &first[0] {
		t.Fatal("with nothing queued the slab should be reused")
	}
	// The run ends with an event of its own still in the heap.
	r.Sim.Schedule(r.Sim.Now()+1e6, func() { again[1].rawIn = 99 })
	giveBack(x, &x.run().sens, again)

	next := borrow(&x.run().sens, n)
	if &next[0] == &again[0] {
		t.Fatal("a slab with events still queued was handed to the next run")
	}
	r.Sim.Run() // the stale event fires during the next run
	for i := range next {
		if next[i].rawIn != 0 {
			t.Fatalf("the stale event wrote into the next run's node %d", i)
		}
	}
	giveBack(x, &x.run().sens, next)

	// End to end: a round that starts with a foreign event queued is
	// still exact, and the rounds after it reuse their slab again.
	r.Sim.Schedule(r.Sim.Now()+1e6, func() {})
	truth, err := GroundTruth(x)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 3; round++ {
		res, err := r.Run(runStateSrc, NewSENSJoin(), 0)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Complete || !rowsEqual(res.Rows, truth.Rows) {
			t.Fatalf("round %d: result differs from the ground truth", round)
		}
	}
}

// The per-node cost of a warm round is what it schedules and sends — one
// deadline event per node and phase, the messages — not what merely
// exists per node: no handler closure, no state slab, no counter map.
// So the per-node ceiling is the same at 150 and at 1500 nodes; a handler
// closure or counter map per node would add several allocations per node
// (11 per node for SENS-Join and 9 for the external join with both).
func TestRoundAllocsPerNode(t *testing.T) {
	for _, nodes := range []int{150, 1500} {
		r, _ := planFixture(t, nodes)
		prep, err := r.Prepare(runStateSrc)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range []struct {
			m       Method
			perNode float64
		}{{NewSENSJoin(), 6.5}, {External{}, 2.5}} {
			run := func() {
				r.Stats.Reset()
				if _, err := r.RunPrepared(prep, c.m, 0); err != nil {
					t.Fatal(err)
				}
			}
			run() // warm: slabs, kernel scratch, counter columns
			allocs := testing.AllocsPerRun(5, run)
			if limit := c.perNode*float64(nodes) + 100; allocs > limit {
				t.Errorf("%s at %d nodes: %.0f allocs/round, want <= %.0f", c.m.Name(), nodes, allocs, limit)
			}
		}
	}
}

// On a warm scratch the kernel allocates for its result and its plan,
// never for its candidate lists, value vectors, probe arrays or match
// list: an aggregate over ten times the tuples costs the same handful.
func TestJoinKernelWarmScratchAllocs(t *testing.T) {
	const ceiling = 40
	x := kernelExec(t, "SELECT COUNT(A.temp), MIN(A.temp - B.temp) FROM Sensors A, Sensors B WHERE A.temp - B.temp > 30 ONCE")
	for _, count := range []int{150, 1500} {
		tuples, cols := benchTuples(count)
		exactJoinOver(x, cols, tuples)
		allocs := testing.AllocsPerRun(5, func() { exactJoinOver(x, cols, tuples) })
		// The contributor set is part of the result and grows with it.
		_, contrib := exactJoinOver(x, cols, tuples)
		if limit := float64(ceiling + len(contrib)/4); allocs > limit {
			t.Errorf("%d tuples: %.0f allocs/run, want <= %.0f", count, allocs, limit)
		}
	}
}

// A sharded runner's region workers index the borrowed slabs and charge
// the dense collector concurrently; round after round on the same
// runner must repeat the first round exactly and agree with the classic
// engine (row order aside: same-time arrivals at the base station tie
// differently between the engines). Run under -race.
func TestShardedRoundsReuseRunState(t *testing.T) {
	classic, err := NewRunner(SetupConfig{Nodes: 300, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := NewRunner(SetupConfig{Nodes: 300, Seed: 3, Shards: 4, Private: true, SetupWorkers: 1})
	if err != nil {
		t.Fatal(err)
	}
	firstRows := map[string][]Row{}
	for round := 0; round < 3; round++ {
		for _, m := range []Method{NewSENSJoin(), External{}} {
			classic.Stats.Reset()
			sharded.Stats.Reset()
			want, err := classic.Run(shardTraceSrc, m, 0)
			if err != nil {
				t.Fatal(err)
			}
			got, err := sharded.Run(shardTraceSrc, m, 0)
			if err != nil {
				t.Fatal(err)
			}
			if !sharded.Sim.Sharded() {
				t.Fatal("the sharded runner fell back to the classic engine")
			}
			if !equalStrings(sortedRows(got.Rows), sortedRows(want.Rows)) || got.Complete != want.Complete || got.ResponseTime != want.ResponseTime {
				t.Fatalf("round %d %s: sharded result differs from classic", round, m.Name())
			}
			if round == 0 {
				firstRows[m.Name()] = got.Rows
			} else if !rowsEqual(got.Rows, firstRows[m.Name()]) {
				t.Fatalf("round %d %s: rows differ from the same runner's first round", round, m.Name())
			}
			for id := 0; id < classic.Net.N(); id++ {
				wp, wb := classic.Stats.NodeTx(topology.NodeID(id))
				gp, gb := sharded.Stats.NodeTx(topology.NodeID(id))
				if wp != gp || wb != gb {
					t.Fatalf("round %d %s: node %d tx %d/%d, classic %d/%d", round, m.Name(), id, gp, gb, wp, wb)
				}
			}
		}
	}
}

// One handler serves the whole network: a delivery reaches it with the
// receiving node, and clearing it stops deliveries without a trace.
func TestSingleHandlerSeesReceiver(t *testing.T) {
	r, err := NewRunner(SetupConfig{Nodes: 50, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	heard := map[topology.NodeID]int{}
	r.Net.SetHandler(func(to topology.NodeID, m netsim.Message) {
		if to != m.Dst {
			t.Errorf("handler got to=%d for a message addressed to %d", to, m.Dst)
		}
		heard[to]++
	})
	r.Net.Send(netsim.Message{Src: topology.BaseStation, Dst: netsim.BroadcastID, Phase: "p", Size: 4})
	r.Sim.Run()
	if want := len(r.Dep.Neighbors[topology.BaseStation]); len(heard) != want {
		t.Fatalf("broadcast reached %d receivers through the handler, want %d", len(heard), want)
	}
	r.Net.SetHandler(nil)
	r.Net.Send(netsim.Message{Src: topology.BaseStation, Dst: netsim.BroadcastID, Phase: "p", Size: 4})
	r.Sim.Run()
	for to, k := range heard {
		if k != 1 {
			t.Fatalf("node %d heard %d messages, want 1 (handler was cleared)", to, k)
		}
	}
}

// BenchmarkExternalRound is one whole external-join execution at the
// paper's scale, beside BenchmarkSENSJoinRound: plan, one collection
// wave on the simulator, base-station join.
func BenchmarkExternalRound(b *testing.B) {
	r, _ := planFixture(b, 1500)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := r.Run(runStateSrc, External{}, 0)
		if err != nil {
			b.Fatal(err)
		}
		if !res.Complete {
			b.Fatal("incomplete round")
		}
	}
}
