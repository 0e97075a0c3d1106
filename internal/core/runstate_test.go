package core

import (
	"bytes"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
	"unsafe"

	"sensjoin/internal/netsim"
	"sensjoin/internal/tabledigest"
	"sensjoin/internal/topology"
	"sensjoin/internal/trace"
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
// installed would hold the finished run's node state, plan and Exec, and
// so would a kept SENS-Join round state or simulator batch record that
// was not cleared. The run clears the network's handler, its borrowed
// slabs and its round state on the way out, and a batch record forgets
// its nodes and callback when it runs, so the Execs are collected while
// the Runner lives on — on one region and on two, for one query and for
// a 3-member cluster's round — and the slabs it keeps hold no inner
// slice.
func TestRunnerReleasesFinishedRun(t *testing.T) {
	check := func(name string, shards int, run func(r *Runner) []*Exec) {
		t.Helper()
		r, err := NewRunner(SetupConfig{Nodes: 150, Seed: 42, Shards: shards, Private: shards > 1, SetupWorkers: 1})
		if err != nil {
			t.Fatal(err)
		}
		done := make(chan struct{})
		func() {
			execs := run(r)
			var wg sync.WaitGroup
			wg.Add(len(execs))
			for _, x := range execs {
				runtime.SetFinalizer(x, func(*Exec) { wg.Done() })
			}
			go func() { wg.Wait(); close(done) }()
		}()
		if !collected(done) {
			t.Errorf("%s: a finished execution is still reachable from its idle Runner", name)
		}
		for i, st := range r.scratch.sens[:cap(r.scratch.sens)] {
			if st.cutFrom != nil || st.tail != nil {
				t.Fatalf("%s: node %d of the idle sensNode slab still holds a slice", name, i)
			}
		}
		for i, nd := range r.scratch.wave[:cap(r.scratch.wave)] {
			if nd.children != nil {
				t.Fatalf("%s: node %d of the idle wave slab still holds its children", name, i)
			}
		}
		if rs := r.scratch.round; rs != nil {
			for _, x := range rs.execs[:cap(rs.execs)] {
				if x != nil {
					t.Fatalf("%s: the idle round state still lists an execution", name)
				}
			}
		}
		runtime.KeepAlive(r)
	}
	for _, shards := range []int{1, 2} {
		for _, m := range []Method{NewSENSJoin(), External{}, SemiJoin{}, Mediated{}} {
			check(fmt.Sprintf("%s, %d regions", m.Name(), shards), shards, func(r *Runner) []*Exec {
				x, err := execSQL(r, runStateSrc, 0)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := m.Run(x); err != nil {
					t.Fatal(err)
				}
				return []*Exec{x}
			})
		}
		check(fmt.Sprintf("3-member round, %d regions", shards), shards, func(r *Runner) []*Exec {
			execs := make([]*Exec, 3)
			for j, delta := range []float64{7.5, 8, 8.5} {
				src := strings.Replace(runStateSrc, "7.5", fmt.Sprint(delta), 1)
				x, err := execSQL(r, src, 0)
				if err != nil {
					t.Fatal(err)
				}
				execs[j] = x
			}
			res, err := NewSENSJoin().round(execs, nil)
			if err != nil || len(res) != 3 {
				t.Fatalf("3-member round: %d results, %v", len(res), err)
			}
			if r.scratch.round == nil {
				t.Fatal("the runner did not keep the round state")
			}
			return execs
		})
	}
}

// An event a run leaves queued — a reliable-transport timer, a delivery
// beyond a collection wave's deadline — may hold pointers into the run's
// slab or its round arenas. Neither is handed to the next run: when the
// event fires it reads or writes memory nobody else was given.
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

	// The round arenas follow the same rule. A reliable transfer's
	// retransmission timer is queued beyond the delivery it guards, and
	// its message may point into an arena (payloads are carved there), so
	// arenas closed while it is pending are abandoned: the next round
	// carves from storage of its own.
	r.Net.EnableReliable(netsim.ReliableConfig{})
	arenas := openArenas(x)
	if arenas[0].payloads.buf == nil {
		t.Fatal("the warm runner's arena has no payload storage")
	}
	stale := arenas[0].payloads.one()
	child := r.Tree.Children[topology.BaseStation][0]
	r.Net.Send(netsim.Message{
		Kind: kindJoinAttrs, Src: child, Dst: topology.BaseStation,
		Phase: PhaseJACollect, Size: 8, Payload: stale,
	})
	if r.Sim.Pending() == 0 {
		t.Fatal("the reliable transfer left nothing queued")
	}
	closeArenas(x, arenas)
	if r.scratch.arenas[0].payloads.buf != nil {
		t.Fatal("arenas closed with a reliable timer pending kept their storage")
	}
	arenas = openArenas(x)
	if fresh := arenas[0].payloads.one(); fresh == stale {
		t.Fatal("an arena with a reliable timer pending was handed to the next round")
	}
	r.Sim.Run() // the stale transfer and its timer
	closeArenas(x, arenas)
	for round := 0; round < 2; round++ {
		res, err := r.Run(runStateSrc, NewSENSJoin(), 0)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Complete || !rowsEqual(res.Rows, truth.Rows) {
			t.Fatalf("reliable round %d: result differs from the ground truth", round)
		}
	}
	if r.scratch.arenas[0].payloads.buf == nil {
		t.Fatal("the rounds after the stale timer drained do not reuse their arena")
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
// A SENS-Join round carves its sender lists, Treecut lists, key sets,
// payloads and filter messages from the runner's round arenas, so on a
// warm runner what is left per node is the external join's share of the
// radio: measured at 1500 nodes, SENS-Join fell from 2.0 allocations and
// 129 bytes per node (every hop allocating) to 0.09 and 32, and to 0.01
// and 0.6 — nothing per node — once its wave entries and round state were
// kept by the runner too, so its ceilings are the fixed slack below and a
// margin of 0.03 allocations and 4 bytes per node. The same holds
// on a sharded runner, where every region carves from its own arena, and
// for a 3-member cluster, which also pays for the masks it sends. A
// continuous epoch adds what crosses rounds: every forwarding node's new
// filter and every receiver's reconstructed one stay on the heap. A round
// whose plain result is released allocates nothing for its rows: at 1500
// nodes, 13,082 rows (628 bytes per node) cost 0.3 bytes per node. Run
// WithoutRows, the same large result is never built: an external join of
// it costs what the external join of a small one does, 0.93 allocations
// and 44 bytes per node at 1500 nodes.
//
// A recovering round runs one scoped-recovery wave, which forwards by
// reference like every collection wave: at 1500 nodes, 2,078 bytes and
// 21.3 allocations per node fell to 1,676 and 19.1 when its per-hop tuple
// copies went. Most of what is left is reliable transport and repair.
//
// Every ceiling adds one fixed slack: what a warm round allocates whatever
// the node count. Since the simulator's wave entries and the round's own
// state are kept by the runner (batch records, borrowRound), that is the
// execution, its plan and its answer: a warm SENS-Join round allocates 17
// times and about 700 bytes at 150 nodes and 18 and 900 at 1500 (it was
// 51 and 2,340 at 150), and up to 33 and 1,922 under the race detector,
// which adds noise of its own. The slack is the race figures plus a
// third: 40 allocations and 2,560 bytes.
func TestRoundAllocsPerNode(t *testing.T) {
	const slackAllocs, slackBytes = 40, 2560
	for _, nodes := range []int{150, 1500} {
		r, _ := planFixture(t, nodes)
		prep, err := r.Prepare(runStateSrc)
		if err != nil {
			t.Fatal(err)
		}
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
		sharded, err := NewRunner(SetupConfig{Nodes: nodes, Seed: 42, Shards: 2, Private: true, SetupWorkers: 1})
		if err != nil {
			t.Fatal(err)
		}
		contSrc, err := r.Prepare(strings.Replace(runStateSrc, "ONCE", "SAMPLE PERIOD 30", 1))
		if err != nil {
			t.Fatal(err)
		}
		cont, epoch := NewContinuousSENSJoin(), 0
		on := func(r *Runner, p *Prepared, m Method) func() error {
			return func() error { _, err := r.RunPrepared(p, m, 0); return err }
		}
		// A plain band join of about 500 to 650 bytes of rows per node,
		// released after each round: its row headers and cells are carved
		// from the storage the round before handed back, so the round
		// costs what a round with a few rows does.
		large, err := r.Prepare(fmt.Sprintf("SELECT A.temp, B.temp, A.hum, B.hum, A.pres, B.pres FROM Sensors A, Sensors B WHERE A.temp - B.temp > %d ONCE", map[int]int{150: 3, 1500: 5}[nodes]))
		if err != nil {
			t.Fatal(err)
		}
		released := func() error {
			res, err := r.RunPrepared(large, NewSENSJoin(), 0)
			if err == nil && len(res.Rows)*(24+8*6) < 400*nodes {
				t.Fatalf("fixture drifted: %d rows are not 400 bytes per node", len(res.Rows))
			}
			res.Release()
			return err
		}
		// Uniform loss never reaches recovery under reliable transport: ARQ
		// delivers everything. A tree edge that drops every packet does,
		// and each round jams a fresh one, because the round before
		// repaired the tree around its own.
		lossy, _ := planFixture(t, nodes)
		lossyOpts := []RunOption{WithReliable(netsim.ReliableConfig{}), WithLoss(0.05, 1)}
		var jammed [2]topology.NodeID
		recovering := func() error {
			lossy.Net.SetLinkLossRate(jammed[0], jammed[1], 0)
			child, parent := failLink(lossy)
			lossy.Net.SetLinkLossRate(child, parent, 1)
			jammed = [2]topology.NodeID{child, parent}
			res, err := lossy.RunPrepared(prep, External{}, 0, lossyOpts...)
			if err == nil && res.RecoveryRounds != 1 {
				t.Fatalf("recovering round: %d recovery rounds, want 1", res.RecoveryRounds)
			}
			return err
		}
		for _, c := range []struct {
			name         string
			r            *Runner
			round        func() error
			perNode      float64 // allocations
			bytesPerNode float64
		}{
			{"sens-join", r, on(r, prep, NewSENSJoin()), 0.03, 4},
			{"sens-join, large result released", r, released, 0.03, 4},
			{"sens-join, 2 shards", sharded, on(sharded, prep, NewSENSJoin()), 0.5, 45},
			{"external-join", r, on(r, prep, External{}), 1.1, 135},
			{"external-join without rows", r, func() error {
				res, err := r.RunPrepared(large, External{}, 0, WithoutRows())
				if err == nil && (res.Rows != nil || res.ContributingNodes == 0) {
					t.Fatalf("without rows: %d rows, %d contributors", len(res.Rows), res.ContributingNodes)
				}
				return err
			}, 1.0, 60},
			{"3-member cluster", r, func() error { _, err := g.RunRound(r, 0); return err }, 0.3, 45},
			{"continuous epoch", r, func() error {
				// Two instants, alternating: both snapshots stay warm and
				// every epoch's filter differs from the last.
				epoch++
				_, err := r.RunPrepared(contSrc, cont, float64(epoch%2)*30)
				return err
			}, 0.4, 110},
			{"external-join, recovering", lossy, recovering, 23, 1850},
		} {
			run := func() {
				c.r.Stats.Reset()
				if err := c.round(); err != nil {
					t.Fatal(err)
				}
			}
			run() // warm: slabs, arenas, kernel scratch, counter columns, cross-round state
			run()
			allocs := testing.AllocsPerRun(5, run)
			bytes := bytesPerRun(5, run)
			t.Logf("%s at %d nodes: %.0f allocs and %.0f bytes per round, %.2f and %.1f per node", c.name, nodes, allocs, bytes, allocs/float64(nodes), bytes/float64(nodes))
			if limit := c.perNode*float64(nodes) + slackAllocs; allocs > limit {
				t.Errorf("%s at %d nodes: %.0f allocs/round, want <= %.0f", c.name, nodes, allocs, limit)
			}
			if limit := c.bytesPerNode*float64(nodes) + slackBytes; bytes > limit {
				t.Errorf("%s at %d nodes: %.0f bytes/round, want <= %.0f", c.name, nodes, bytes, limit)
			}
		}
		if !sharded.Sim.Sharded() || len(sharded.scratch.arenas) != 2 {
			t.Fatalf("the sharded runner has %d round arenas, want one per region", len(sharded.scratch.arenas))
		}
	}
	// Mask state lives beside sensNode (nodeMasks), and everything a node
	// needs only past Treecut in its tail (sensTail). What every node
	// carries is the Treecut inbox — a sender list and two counts — the
	// tail pointer and the two phase-A flags: 56 bytes.
	if size := unsafe.Sizeof(sensNode{}); size > 56 {
		t.Errorf("sensNode is %d bytes, want <= 56", size)
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

func (q *queueProbe) Charge(side netsim.Side, node netsim.NodeID, phase string, packets, bytes int) {
	if side == netsim.SideRx {
		q.peak = max(q.peak, q.sim.Pending())
	}
	q.Accountant.Charge(side, node, phase, packets, bytes)
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
		exactJoinOver(x, cols, tuples, true)
		allocs := testing.AllocsPerRun(5, func() { exactJoinOver(x, cols, tuples, true) })
		// The contributor set is part of the result and grows with it.
		contrib := exactJoinOver(x, cols, tuples, true).contrib
		if limit := float64(ceiling + len(contrib)/4); allocs > limit {
			t.Errorf("%d tuples: %.0f allocs/run, want <= %.0f", count, allocs, limit)
		}
	}
}

// A contributor-only join builds no rows, so on a warm scratch it
// enumerates the matches and marks their nodes without allocating: a
// streamed scan, an indexed band plan and an aggregate alike, at any
// result size.
func TestContributorJoinWarmAllocatesNothing(t *testing.T) {
	for _, src := range []string{
		"SELECT A.temp, B.temp, A.hum, B.hum FROM Sensors A, Sensors B WHERE A.temp - B.temp > 5 ONCE",
		"SELECT A.temp, B.temp FROM Sensors A, Sensors B WHERE A.bucket = B.bucket AND A.temp - B.temp > 0.5 ONCE",
		"SELECT A.temp, B.temp FROM Sensors A, Sensors B WHERE A.temp * B.temp > 900 ONCE",
		"SELECT COUNT(A.temp), MIN(A.temp - B.temp) FROM Sensors A, Sensors B WHERE A.temp - B.temp > 30 ONCE",
	} {
		x := kernelExec(t, src)
		for _, count := range []int{150, 600} {
			tuples, cols := benchTuples(count)
			want := exactJoinOver(x, cols, tuples, true)
			if want.n == 0 {
				t.Fatalf("%q at %d tuples: empty result proves nothing", src, count)
			}
			wantContrib := slices.Clone(want.contrib)
			got := exactJoinOver(x, cols, tuples, false)
			if got.rows != nil || got.block != nil || !slices.Equal(got.contrib, wantContrib) {
				t.Fatalf("%q at %d tuples: rows %d, block %t, %d contributors, want none, none, %d",
					src, count, len(got.rows), got.block != nil, len(got.contrib), len(wantContrib))
			}
			if allocs := testing.AllocsPerRun(5, func() { exactJoinOver(x, cols, tuples, false) }); allocs != 0 {
				t.Errorf("%q at %d tuples: %.0f allocs/run, want 0", src, count, allocs)
			}
		}
	}
}

// A sharded runner's region workers index the borrowed slabs and charge
// the dense collector concurrently; round after round on the same
// runner must repeat the first round exactly and agree with a one-region
// runner. Run under -race.
func TestShardedRoundsReuseRunState(t *testing.T) {
	single, err := NewRunner(SetupConfig{Nodes: 300, Seed: 3})
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
			single.Stats.Reset()
			sharded.Stats.Reset()
			want, err := single.Run(shardTraceSrc, m, 0)
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
			if d := tabledigest.Diff(got.Table(), want.Table()); d != "" || got.ResponseTime != want.ResponseTime {
				t.Fatalf("round %d %s: sharded result differs from one region: %q, response %g vs %g", round, m.Name(), d, got.ResponseTime, want.ResponseTime)
			}
			if round == 0 {
				firstRows[m.Name()] = got.Rows
			} else if !rowsEqual(got.Rows, firstRows[m.Name()]) {
				t.Fatalf("round %d %s: rows differ from the same runner's first round", round, m.Name())
			}
			sameNodeTx(t, fmt.Sprintf("round %d %s", round, m.Name()), single, sharded)
		}
	}
}

// sameNodeTx fails unless every node transmitted the same packets and
// bytes on both runners since their collectors were last reset.
func sameNodeTx(t *testing.T, what string, single, sharded *Runner) {
	t.Helper()
	for id := 0; id < single.Net.N(); id++ {
		wp, wb := single.Stats.NodeTx(topology.NodeID(id))
		gp, gb := sharded.Stats.NodeTx(topology.NodeID(id))
		if wp != gp || wb != gb {
			t.Fatalf("%s: node %d tx %d/%d, one region %d/%d", what, id, gp, gb, wp, wb)
		}
	}
}

// What a continuous SENS-Join keeps between epochs — every node's last
// broadcast, its reconstructed filter — is touched from the node's own
// region worker, its deltas are carved from the round arena of the node's
// region, and a shared QueryGroup round is the same body with m members.
// So on a sharded runner an independent continuous query, a three-member
// cluster and a singleton cluster must each agree with a one-region
// runner in every epoch while the snapshot advances: rows (order aside),
// Complete, ResponseTime and every node's transmissions. From the second
// epoch on every round carves from arenas an earlier round used. Run
// under -race: a buffer shared across regions loses rows without it and
// is reported with it.
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
	single, err := NewRunner(SetupConfig{Nodes: nodes, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := NewRunner(SetupConfig{Nodes: nodes, Seed: 3, Shards: 4, Private: true, SetupWorkers: 1})
	if err != nil {
		t.Fatal(err)
	}
	wantLanes, gotLanes := lanesOn(single), lanesOn(sharded)
	for epoch := 0; epoch < epochs; epoch++ {
		tm := float64(epoch) * 30
		for l := range wantLanes {
			single.Stats.Reset()
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
				if d := tabledigest.Diff(got[q].Table(), want[q].Table()); d != "" || got[q].ResponseTime != want[q].ResponseTime {
					t.Fatalf("%s query %d: sharded result differs from one region: %q, response %g vs %g",
						what, q, d, got[q].ResponseTime, want[q].ResponseTime)
				}
				if !want[q].Complete {
					t.Fatalf("%s query %d: the lossless one-region round is incomplete", what, q)
				}
			}
			sameNodeTx(t, what, single, sharded)
		}
		if epoch == 0 {
			for i, a := range sharded.scratch.arenas {
				if a.keys.buf == nil {
					t.Fatalf("region %d's arena kept no storage for the next epoch", i)
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

// poisonArenas overwrites all of every region's round arena on r, carved
// or not, with a sentinel no round writes.
func poisonArenas(r *Runner) {
	for i := range r.scratch.arenas {
		a := &r.scratch.arenas[i]
		for j := range a.keys.buf {
			a.keys.buf[j] = ^zorder.Key(0)
		}
		for j := range a.tuples.buf {
			a.tuples.buf[j] = finalTuple{node: -1, flags: ^uint64(0), bytes: -1}
		}
		for j := range a.ids.buf {
			a.ids.buf[j] = -1
		}
		for j := range a.reports.buf {
			a.reports.buf[j] = childReport{id: -1, pl: &jaPayload{rawCount: -1}}
		}
		for j := range a.payloads.buf {
			a.payloads.buf[j] = jaPayload{keys: []zorder.Key{^zorder.Key(0)}, rawCount: -1, covered: -1, needFull: true, keysBytes: -1}
		}
		for j := range a.filters.buf {
			a.filters.buf[j] = filterMsg{mode: -1, seq: -1, baseSeq: -1, keys: []zorder.Key{^zorder.Key(0)}, size: -1, setBytes: -1}
		}
	}
}

// Everything a round carves lives until the round returns, and nothing
// that outlives it — a Result, a continuous query's last broadcast and
// reconstructed filter — points into a round arena. So overwriting every
// region's arenas after each round changes neither the results already
// returned nor any later round: a continuous query's epochs and a
// three-member cluster's rounds give the tables, journals and filter
// state of a runner whose arenas are left alone, on one region and on
// four.
func TestRoundArenaLifetime(t *testing.T) {
	const nodes, epochs = 300, 4
	type lanes struct {
		r     *Runner
		rec   *trace.Recorder
		cont  *SENSJoin
		group *QueryGroup
	}
	setup := func(shards int) lanes {
		r, err := NewRunner(SetupConfig{Nodes: nodes, Seed: 3, Shards: shards, Private: true, SetupWorkers: 1})
		if err != nil {
			t.Fatal(err)
		}
		g := NewQueryGroup(Options{})
		for _, src := range []string{qTempBand(7), qTempBand(7.5), qTempBand(8)} {
			mustAdd(t, g, src)
		}
		if g.Clusters() != 1 {
			t.Fatalf("Clusters = %d, want one three-member cluster", g.Clusters())
		}
		return lanes{r: r, rec: trace.New(), cont: NewContinuousSENSJoin(), group: g}
	}
	// epoch runs one round of each lane and returns the digests of its
	// results, journal and continuous filter state, and the results.
	epoch := func(l lanes, tm float64) (string, []*Result) {
		mark := l.rec.Mark()
		res, err := l.r.Run(strings.Replace(shardTraceSrc, "ONCE", "SAMPLE PERIOD 30", 1), l.cont, tm, Traced(l.rec))
		if err != nil {
			t.Fatal(err)
		}
		members, err := l.group.RunRound(l.r, tm, Traced(l.rec))
		if err != nil {
			t.Fatal(err)
		}
		all := append([]*Result{res}, members...)
		var buf bytes.Buffer
		if err := trace.WriteJSONL(&buf, l.rec.JournalSince(mark)); err != nil {
			t.Fatal(err)
		}
		c := l.cont.cont
		return fmt.Sprintf("%s\njournal %x\nsent %v %v\ncached %v %v %v\nneedFull %v",
			digestResults(all), buf.Bytes(), c.seq, c.prevSent, c.cachedSeq, c.cached, c.cachedParent, c.needFull), all
	}
	for _, shards := range []int{1, 4} {
		clean, poisoned := setup(1), setup(shards)
		for e := 0; e < epochs; e++ {
			tm := float64(e) * 30
			want, _ := epoch(clean, tm)
			got, results := epoch(poisoned, tm)
			before := digestResults(results)
			poisonArenas(poisoned.r)
			if after := digestResults(results); after != before {
				t.Fatalf("shards=%d epoch %d: poisoning the arenas changed the returned results", shards, e)
			}
			if got != want {
				t.Fatalf("shards=%d epoch %d: the round after poisoned arenas differs from a clean runner's", shards, e)
			}
		}
		if n := len(poisoned.r.scratch.arenas); n != shards {
			t.Fatalf("shards=%d: %d round arenas, want one per region", shards, n)
		}
		for i, a := range poisoned.r.scratch.arenas {
			if a.keys.buf == nil || a.payloads.buf == nil {
				t.Fatalf("shards=%d: region %d's arena kept no storage, so nothing was reused", shards, i)
			}
		}
	}
}

// digestResults renders results completely, all but the address of the
// storage their rows are carved from.
func digestResults(results []*Result) string {
	var b strings.Builder
	for _, res := range results {
		c := *res
		c.block = nil
		fmt.Fprintf(&b, "%+v\n", c)
	}
	return b.String()
}
