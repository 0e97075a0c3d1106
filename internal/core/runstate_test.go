package core

import (
	"fmt"
	"runtime"
	"slices"
	"testing"
	"time"
	"unsafe"

	"sensjoin/internal/netsim"
	"sensjoin/internal/topology"
	"sensjoin/internal/zorder"
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
			if st.cutFrom != nil || st.finalFrom != nil || st.children != nil || st.proxied != nil {
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
	r.Sim.Schedule(r.Sim.Now()+1e6, func() { again[1].cutBytes = 99 })
	giveBack(x, &x.run().sens, again)

	next := borrow(&x.run().sens, n)
	if &next[0] == &again[0] {
		t.Fatal("a slab with events still queued was handed to the next run")
	}
	r.Sim.Run() // the stale event fires during the next run
	for i := range next {
		if next[i].cutBytes != 0 {
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

// The per-node cost of a warm round is what it sends — its messages and
// what they carry — not what merely exists per node: no deadline event
// and closure per node and phase (a wave is scheduled per tree level:
// 5.4 allocations per node fell to 3.5 for SENS-Join, 1.9 to 1.0 for the
// external join), no handler closure, no state slab, no counter map.
// So the per-node ceiling is the same at 150 and at 1500 nodes; a handler
// closure or counter map per node would add several allocations per node
// (11 per node for SENS-Join and 9 for the external join with both).
//
// Phase A forwards by reference: a Treecut message names its sender and a
// relay merges its children's key sets once at its deadline. Copying the
// tuples and key sets at every hop cost SENS-Join 3.4 allocations and 202
// bytes per node at 1500 nodes; by reference it is 2.0 and 129.
func TestRoundAllocsPerNode(t *testing.T) {
	for _, nodes := range []int{150, 1500} {
		r, _ := planFixture(t, nodes)
		prep, err := r.Prepare(runStateSrc)
		if err != nil {
			t.Fatal(err)
		}
		// The same round body with m = 3: a cluster pays for the masks it
		// sends (one list per filter broadcast and per phase-C message) and
		// for three final joins — measured 2.2 allocations and 138 bytes
		// per node against 2.0 and 129 for the single query at 1500 nodes —
		// and still nothing per node that merely exists.
		g := NewQueryGroup(Options{})
		for _, delta := range []float64{7.5, 8, 8.5} {
			p, err := r.Prepare(fmt.Sprintf("SELECT A.temp, B.temp, A.hum, B.hum, A.pres, B.pres FROM Sensors A, Sensors B WHERE A.temp - B.temp > %g ONCE", delta))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := g.Add(p); err != nil {
				t.Fatal(err)
			}
		}
		if g.Clusters() != 1 {
			t.Fatalf("Clusters = %d, want one three-member cluster", g.Clusters())
		}
		single := func(m Method) func() error {
			return func() error { _, err := r.RunPrepared(prep, m, 0); return err }
		}
		for _, c := range []struct {
			name         string
			round        func() error
			perNode      float64 // allocations
			bytesPerNode float64
		}{
			{"sens-join", single(NewSENSJoin()), 2.2, 145},
			{"external-join", single(External{}), 1.2, 135},
			{"3-member cluster", func() error { _, err := g.RunRound(r, 0); return err }, 2.4, 155},
		} {
			run := func() {
				r.Stats.Reset()
				if err := c.round(); err != nil {
					t.Fatal(err)
				}
			}
			run() // warm: slabs, kernel scratch, counter columns, cross-round state
			allocs := testing.AllocsPerRun(5, run)
			if limit := c.perNode*float64(nodes) + 100; allocs > limit {
				t.Errorf("%s at %d nodes: %.0f allocs/round, want <= %.0f", c.name, nodes, allocs, limit)
			}
			if bytes, limit := bytesPerRun(5, run), c.bytesPerNode*float64(nodes)+8192; bytes > limit {
				t.Errorf("%s at %d nodes: %.0f bytes/round, want <= %.0f", c.name, nodes, bytes, limit)
			}
		}
	}
	// Mask state lives beside sensNode (nodeMasks), not in it. The phase-C
	// inbox is a sender list and a byte count, the phase-A inbox a sender
	// list, two counts and the children's reports: 200 bytes in all.
	if size := unsafe.Sizeof(sensNode{}); size > 232 {
		t.Errorf("sensNode is %d bytes, want <= 232", size)
	}
}

// bytesPerRun is testing.AllocsPerRun for bytes: the heap bytes one call
// of f allocates on average over runs calls, after a warm-up call.
func bytesPerRun(runs int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

// queueProbe samples the event queue at every reception — the one place
// the simulator calls out while a round is under way.
type queueProbe struct {
	netsim.Accountant
	sim  *netsim.Sim
	peak int
}

func (q *queueProbe) OnRx(node netsim.NodeID, phase string, packets, bytes int) {
	q.peak = max(q.peak, q.sim.Pending())
	q.Accountant.OnRx(node, phase, packets, bytes)
}

// A wave's deadlines are one queue entry per tree level, so what a round
// keeps queued is the tree's depth plus the messages in flight — not one
// entry per node (the peak was about n, the whole of phase C scheduled at
// once, while every node had a deadline of its own).
func TestRoundQueueStaysShallow(t *testing.T) {
	const nodes = 1500
	r, _ := planFixture(t, nodes)
	probe := &queueProbe{Accountant: r.Stats, sim: r.Sim}
	r.Net.SetAccountant(probe)
	for _, m := range []Method{NewSENSJoin(), External{}} {
		probe.peak = 0
		if _, err := r.Run(runStateSrc, m, 0); err != nil {
			t.Fatal(err)
		}
		if probe.peak == 0 || probe.peak >= nodes/4 {
			t.Errorf("%s at %d nodes: the queue peaked at %d entries, want 0 < peak < %d", m.Name(), nodes, probe.peak, nodes/4)
		}
	}
}

// countingRep is the quadtree representation with its SetBytes calls
// counted.
type countingRep struct {
	QuadRep
	calls *int
}

func (c countingRep) SetBytes(p *plan, keys []zorder.Key) int {
	*c.calls++
	return c.QuadRep.SetBytes(p, keys)
}

func (c countingRep) PayloadBytes(p *plan, pl *jaPayload) int {
	if pl.keysBytes == 0 {
		pl.keysBytes = c.SetBytes(p, pl.keys)
	}
	return pl.keysBytes
}

// On a chain every relay has exactly one reporting child: it adopts that
// child's key set without copying it (one allocation per relay fewer than
// merging it into an empty set: measured 5.2 per node against 6.2) and
// inherits the size the child computed, so phase A sizes one set per
// relay — the one it sends, own key added — not two. The query's filter
// is empty, so phase B sizes nothing but the empty union.
func TestChainRelaysAdoptTheirChildsKeySet(t *testing.T) {
	const nodes = 200
	r := lineRunner(t, nodes)
	// Joining on x gives every node of the line a key of its own, so every
	// relay's set differs from the one it received.
	prep, err := r.Prepare("SELECT A.temp, B.temp FROM Sensors A, Sensors B WHERE A.x - B.x > 1000000 ONCE")
	if err != nil {
		t.Fatal(err)
	}
	calls := 0
	// Without Treecut every node forwards a key set: the leaf sizes its
	// empty inbox and its payload, each of the nodes-1 relays above it
	// sizes the one set it sends, the base station sizes the empty filter.
	m := &SENSJoin{Options: Options{Rep: countingRep{calls: &calls}, DisableTreecut: true}}
	run := func() {
		r.Stats.Reset()
		if _, err := r.RunPrepared(prep, m, 0); err != nil {
			t.Fatal(err)
		}
	}
	run()
	if want := (nodes - 1) + 2 + 1; calls != want {
		t.Errorf("SetBytes called %d times on a chain of %d, want %d: one per relay", calls, nodes, want)
	}
	if m.Memory.MaxSubtreeBytes == 0 || m.Memory.MaxSubtreeBytes > m.Options.withDefaults().FilterMemLimit {
		t.Errorf("MaxSubtreeBytes = %d: an inherited size must still be accounted", m.Memory.MaxSubtreeBytes)
	}
	allocs := testing.AllocsPerRun(5, run)
	// Per relay: two deadline entries (a chain has one node per tree
	// level, so every batch is a single node), the payload, the copy its
	// own key forces, the children list — and no copy of the adopted set.
	if limit := 5.3 * nodes; allocs > limit {
		t.Errorf("chain of %d: %.0f allocs/round, want <= %.0f", nodes, allocs, limit)
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
// runner must repeat the first round exactly and agree with a one-region
// runner. Run under -race.
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
				t.Fatal("the runner is no longer sharded")
			}
			if !slices.Equal(sortedRows(got.Rows), sortedRows(want.Rows)) || got.Complete != want.Complete || got.ResponseTime != want.ResponseTime {
				t.Fatalf("round %d %s: sharded result differs from one region", round, m.Name())
			}
			if round == 0 {
				firstRows[m.Name()] = got.Rows
			} else if !rowsEqual(got.Rows, firstRows[m.Name()]) {
				t.Fatalf("round %d %s: rows differ from the same runner's first round", round, m.Name())
			}
			sameNodeTx(t, fmt.Sprintf("round %d %s", round, m.Name()), classic, sharded)
		}
	}
}

// sameNodeTx fails unless every node transmitted the same packets and
// bytes on both runners since their collectors were last reset.
func sameNodeTx(t *testing.T, what string, classic, sharded *Runner) {
	t.Helper()
	for id := 0; id < classic.Net.N(); id++ {
		wp, wb := classic.Stats.NodeTx(topology.NodeID(id))
		gp, gb := sharded.Stats.NodeTx(topology.NodeID(id))
		if wp != gp || wb != gb {
			t.Fatalf("%s: node %d tx %d/%d, classic %d/%d", what, id, gp, gb, wp, wb)
		}
	}
}

// What a continuous SENS-Join keeps between epochs — every node's last
// broadcast, its reconstructed filter, the buffers its deltas are
// computed in — is touched from the node's own region worker, and a
// shared QueryGroup round is the same body with m members. So on a
// sharded runner an independent continuous query, a three-member cluster
// and a singleton cluster must each agree with a one-region runner in
// every epoch while the snapshot advances: rows (order aside), Complete,
// ResponseTime and every node's transmissions. Run under -race: a buffer
// shared across regions loses rows without it and is reported with it.
func TestShardedContinuousAndGroupRounds(t *testing.T) {
	const nodes, epochs = 600, 4
	groupSrcs := []string{qTempBand(7), qTempBand(7.5), qTempBand(8), qBand(0.3)}
	type lane struct {
		name  string
		round func(tm float64) ([]*Result, error)
	}
	lanesOn := func(r *Runner) []lane {
		cont := NewContinuousSENSJoin()
		g := NewQueryGroup(Options{})
		for _, src := range groupSrcs {
			p, err := r.Prepare(src)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := g.Add(p); err != nil {
				t.Fatal(err)
			}
		}
		if g.Clusters() != 2 {
			t.Fatalf("Clusters = %d, want a three-member cluster and a singleton", g.Clusters())
		}
		return []lane{
			{"continuous", func(tm float64) ([]*Result, error) {
				res, err := r.Run(shardTraceSrc, cont, tm)
				return []*Result{res}, err
			}},
			{"group", func(tm float64) ([]*Result, error) { return g.RunRound(r, tm) }},
		}
	}
	classic, err := NewRunner(SetupConfig{Nodes: nodes, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := NewRunner(SetupConfig{Nodes: nodes, Seed: 3, Shards: 4, Private: true, SetupWorkers: 1})
	if err != nil {
		t.Fatal(err)
	}
	wantLanes, gotLanes := lanesOn(classic), lanesOn(sharded)
	for epoch := 0; epoch < epochs; epoch++ {
		tm := float64(epoch) * 30
		for l := range wantLanes {
			classic.Stats.Reset()
			sharded.Stats.Reset()
			want, err := wantLanes[l].round(tm)
			if err != nil {
				t.Fatal(err)
			}
			got, err := gotLanes[l].round(tm)
			if err != nil {
				t.Fatal(err)
			}
			if !sharded.Sim.Sharded() {
				t.Fatal("the runner is no longer sharded")
			}
			what := fmt.Sprintf("epoch %d %s", epoch, wantLanes[l].name)
			for q := range want {
				if !slices.Equal(sortedRows(got[q].Rows), sortedRows(want[q].Rows)) ||
					got[q].Complete != want[q].Complete || got[q].ResponseTime != want[q].ResponseTime {
					t.Fatalf("%s query %d: sharded result differs from classic (%d vs %d rows, complete %t vs %t)",
						what, q, len(got[q].Rows), len(want[q].Rows), got[q].Complete, want[q].Complete)
				}
				if !want[q].Complete {
					t.Fatalf("%s query %d: the lossless classic round is incomplete", what, q)
				}
			}
			sameNodeTx(t, what, classic, sharded)
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
// BenchmarkPhaseA times a round that is almost all phase A: two shipped
// attributes make tuples small enough that 1266 of 1500 nodes leave by
// Treecut, and an unsatisfiable predicate leaves phases B and C empty.
func BenchmarkPhaseA(b *testing.B) {
	r, _ := planFixture(b, 1500)
	const src = "SELECT A.temp, B.temp FROM Sensors A, Sensors B WHERE A.temp - B.temp > 500 ONCE"
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := r.Run(src, NewSENSJoin(), 0)
		if err != nil {
			b.Fatal(err)
		}
		if !res.Complete || len(res.Rows) != 0 {
			b.Fatal("the round should be complete and empty")
		}
	}
}

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
