package core

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"strings"
	"testing"

	"sensjoin/internal/field"
	"sensjoin/internal/quadtree"
	"sensjoin/internal/query"
	"sensjoin/internal/relation"
	"sensjoin/internal/routing"
	"sensjoin/internal/topology"
	"sensjoin/internal/zorder"
)

// refNode is one node of the reference plan: what buildPlan stored per
// node when every node carried its own map of sampled values.
type refNode struct {
	flags      uint64
	vals       map[string]float64
	key        zorder.Key
	tupleBytes int
}

// referencePlan is the per-node plan derivation as it was before the
// snapshot: each member node reads its attributes one by one through
// Environment.Read into a map, local predicates are interpreted over
// that map (query.SingleEnv), and the key is encoded from the map. It is
// the oracle buildPlan's column-based path is compared against.
func referencePlan(t *testing.T, x *Exec, p *plan) []*refNode {
	t.Helper()
	n := len(x.Query.From)
	a := x.Analysis
	needed := make(map[string]bool)
	for i := range x.Query.From {
		for _, name := range a.ShippedAttrs[i] {
			needed[name] = true
		}
	}
	for _, name := range p.dims {
		needed[name] = true
	}
	out := make([]*refNode, x.Dep.N())
	for id := 1; id < x.Dep.N(); id++ {
		nid := topology.NodeID(id)
		if x.Net != nil && !x.Net.Alive(nid) {
			continue
		}
		var flags uint64
		vals := make(map[string]float64, len(needed))
		read := func(name string) float64 {
			v, ok := vals[name]
			if !ok {
				v = x.Env.Read(name, x.Dep.Pos[id], x.Time)
				vals[name] = v
			}
			return v
		}
		for i, ref := range x.Query.From {
			if x.Member != nil && !x.Member(nid, ref.Relation) {
				continue
			}
			if pred := a.LocalPredicate(i); pred != nil {
				if !pred.Eval(query.SingleEnv{Rel: i, Lookup: read}) {
					continue
				}
			}
			flags |= zorder.FlagFor(i, n)
		}
		if flags == 0 {
			continue
		}
		for name := range needed {
			read(name)
		}
		nd := &refNode{flags: flags, vals: vals}
		if p.grid != nil {
			joinVals := make([]float64, len(p.dims))
			for j, name := range p.dims {
				joinVals[j] = vals[name]
			}
			nd.key = p.grid.Encode(flags, joinVals)
		}
		nd.tupleBytes = relation.TupleBytes(len(shippedUnion(x, flags)))
		out[id] = nd
	}
	return out
}

// shippedUnion is the sorted union of the shipped attributes of the
// aliases set in flags: what a node with these flags ships.
func shippedUnion(x *Exec, flags uint64) []string {
	n := len(x.Query.From)
	var out []string
	for i := 0; i < n; i++ {
		if flags&zorder.FlagFor(i, n) != 0 {
			out = append(out, x.Analysis.ShippedAttrs[i]...)
		}
	}
	sort.Strings(out)
	return slices.Compact(out)
}

func comparePlan(t *testing.T, label string, x *Exec, p *plan) {
	t.Helper()
	ref := referencePlan(t, x, p)
	members := 0
	for id, want := range ref {
		got := p.nodes[id]
		if want == nil {
			if got != (nodeData{}) {
				t.Fatalf("%s: node %d is %+v, want a non-member", label, id, got)
			}
			continue
		}
		members++
		if got.flags != want.flags || got.key != want.key || got.tupleBytes != want.tupleBytes {
			t.Fatalf("%s: node %d: flags/key/bytes %#x/%#x/%d, want %#x/%#x/%d",
				label, id, got.flags, got.key, got.tupleBytes, want.flags, want.key, want.tupleBytes)
		}
		if tu := p.tuple(topology.NodeID(id)); tu.flags != want.flags || tu.bytes != want.tupleBytes || p.keyOf(tu) != want.key {
			t.Fatalf("%s: node %d: tuple %+v disagrees with the plan", label, id, tu)
		}
		for name, v := range want.vals {
			if got := x.column(name)[id]; math.Float64bits(got) != math.Float64bits(v) {
				t.Fatalf("%s: node %d %s = %v, want %v", label, id, name, got, v)
			}
		}
	}
	if p.members != members {
		t.Fatalf("%s: %d members, want %d", label, p.members, members)
	}
}

// buildPlan over snapshot columns yields the flags, keys, tuple sizes
// and values the per-node map derivation did, for the random query
// corpus with local predicates, heterogeneous membership callbacks and
// dead nodes, at several instants.
func TestBuildPlanMatchesReference(t *testing.T) {
	for i := 0; i < 60; i++ {
		rng := rand.New(rand.NewSource(int64(4000 + i)))
		r := testRunner(t, 60+rng.Intn(80), int64(900+i))
		src := randomQuery(rng)
		// Every case gets local predicates; a third also a disjunctive one.
		src = strings.Replace(src, " ONCE", fmt.Sprintf(" AND A.temp > %.1f AND B.hum < %.0f ONCE",
			15+rng.Float64()*6, 40+rng.Float64()*40), 1)
		if i%3 == 0 {
			src = strings.Replace(src, " ONCE", " AND (A.light > 300 OR A.pres < 1013) ONCE", 1)
		}
		label := fmt.Sprintf("iter %d %q", i, src)
		if i%2 == 1 {
			// Two relations with overlapping, id-dependent membership.
			r.Catalog["Motes"] = &relation.Schema{Name: "Motes", Attrs: r.Catalog["Sensors"].Attrs}
			src = strings.Replace(src, "Sensors B", "Motes B", 1)
			k := 2 + rng.Intn(3)
			r.Member = func(id topology.NodeID, rel string) bool {
				if rel == "Motes" {
					return int(id)%k != 0
				}
				return int(id)%(k+1) != 1
			}
			label += " heterogeneous"
		}
		if i%4 >= 2 {
			for d := 0; d < 5; d++ {
				r.Net.KillNode(topology.NodeID(1 + rng.Intn(r.Dep.N()-1)))
			}
			label += " dead nodes"
		}
		x, err := execSQL(r, src, []float64{0, 30, 4321.5}[i%3])
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		comparePlan(t, label, x, buildPlan(x))
	}
}

// A query may ship more attribute names than one 64-bit word of the
// shape's per-alias bitsets holds (the analyzer does not limit them, and
// the environment samples any name): the tuple sizes still count the
// union of what the node's aliases ship.
func TestBuildPlanShipsMoreThan64Attributes(t *testing.T) {
	var a, b []string
	for i := 0; i < 70; i++ {
		a = append(a, fmt.Sprintf("A.a%d", i))
		if i%3 == 0 {
			b = append(b, fmt.Sprintf("B.a%d", i+40))
		}
	}
	src := "SELECT " + strings.Join(append(a, b...), ", ") +
		" FROM Sensors A, Sensors B WHERE A.temp - B.temp > 1 AND A.temp > 21.5 ONCE"
	r := testRunner(t, 120, 11)
	x, err := execSQL(r, src, 0)
	if err != nil {
		t.Fatal(err)
	}
	if words := x.shape.words; words != 2 {
		t.Fatalf("%d bitset words, want 2 for 85 shipped names", words)
	}
	p := buildPlan(x)
	comparePlan(t, "85 shipped names", x, p)
	masks := map[uint64]bool{}
	for _, nd := range p.nodes {
		masks[nd.flags] = true
	}
	if !masks[0b01] || !masks[0b11] {
		t.Fatalf("masks %v: the fixture no longer has nodes of B alone and of both aliases", masks)
	}
}

// The parallel fill (>= 4096 nodes, Workers > 1) derives the same plan
// from a cold snapshot as the sequential one.
func TestBuildPlanParallelMatchesReference(t *testing.T) {
	dep, err := topology.GenerateParallel(topology.Config{
		Nodes: 5000, Area: topology.ScaledArea(5000), Range: 50, Seed: 3, Repair: true,
	}, 2)
	if err != nil {
		t.Fatal(err)
	}
	tree := routing.BuildTreeParallel(dep.Neighbors, topology.BaseStation, 2)
	const src = "SELECT A.hum, B.pres FROM Sensors A, Sensors B WHERE A.temp - B.temp > 9 AND A.light > 200 ONCE"
	var plans [2]*plan
	for w, workers := range []int{1, 4} {
		r := NewRunnerFromSetup(dep, field.StandardEnvironment(dep.Area, 1003), tree, SetupConfig{SetupWorkers: workers})
		x, err := execSQL(r, src, 0)
		if err != nil {
			t.Fatal(err)
		}
		plans[w] = buildPlan(x)
		comparePlan(t, fmt.Sprintf("%d workers", workers), x, plans[w])
	}
	if plans[0].members != plans[1].members {
		t.Fatalf("members: sequential %d, parallel %d", plans[0].members, plans[1].members)
	}
}

// planFixture is a runner with a warm snapshot for the plan benchmarks
// and allocation guards.
func planFixture(tb testing.TB, nodes int) (*Runner, *Exec) {
	tb.Helper()
	r, err := NewRunner(SetupConfig{Nodes: nodes, Seed: 42})
	if err != nil {
		tb.Fatal(err)
	}
	x, err := execSQL(r, "SELECT A.temp, B.temp, A.hum, B.hum, A.pres, B.pres FROM Sensors A, Sensors B "+
		"WHERE A.temp - B.temp > 7.5 AND A.light > 100 ONCE", 0)
	if err != nil {
		tb.Fatal(err)
	}
	buildPlan(x).release() // fill the snapshot columns and the runner's slab
	return r, x
}

// On a warm runner and snapshot buildPlan allocates per plan, never per
// node: the same few allocations at 150 and at 1500 nodes, and the same
// bytes within a small constant (the node slab is the runner's).
func TestBuildPlanAllocsIndependentOfNodes(t *testing.T) {
	const ceiling, slack = 12, 64
	var bytes [2]float64
	for i, nodes := range []int{150, 1500} {
		_, x := planFixture(t, nodes)
		allocs := testing.AllocsPerRun(20, func() { buildPlan(x).release() })
		if allocs > ceiling {
			t.Errorf("%d nodes: buildPlan %.0f allocs/run, want <= %d", nodes, allocs, ceiling)
		}
		bytes[i] = planBytes(x)
	}
	if d := bytes[1] - bytes[0]; d > slack || d < -slack {
		t.Errorf("buildPlan allocates %.0f B at 150 nodes and %.0f B at 1500, want within %d B", bytes[0], bytes[1], slack)
	}
}

// planBytes is the mean heap bytes one warm buildPlan and release
// allocate.
func planBytes(x *Exec) float64 {
	const runs = 200
	buildPlan(x).release()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		buildPlan(x).release()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / runs
}

// An execution pins its snapshot: however many other instants the
// environment is asked for between the plan and the final join (a server
// runs executions at client-chosen instants side by side), it keeps
// reading the columns it sampled first and never samples them again.
func TestExecPinsItsSnapshot(t *testing.T) {
	r, x := planFixture(t, 150)
	temp := x.column("temp")
	for i := 1; i <= 16; i++ { // far more instants than the environment remembers
		r.Env.Snapshot(r.Dep.Pos, float64(i)).Column("temp")
	}
	if r.Env.Snapshot(r.Dep.Pos, x.Time) == x.snapshot() {
		t.Fatal("the test no longer evicts the execution's snapshot from the environment")
	}
	if again := x.column("temp"); &again[0] != &temp[0] {
		t.Fatal("the execution re-sampled a column after its snapshot left the environment's ring")
	}
	comparePlan(t, "after eviction", x, buildPlan(x))
}

// Sizing a key set under the default representation allocates nothing.
func TestQuadRepSetBytesAllocs(t *testing.T) {
	p, keys := filterFixture(t, "SELECT A.temp, B.temp FROM Sensors A, Sensors B WHERE A.temp - B.temp > 1.5 ONCE")
	keys = quadtree.NormalizeKeys(keys)
	rep := QuadRep{}
	want := p.codec.Encode(keys).ByteLen()
	if got := rep.SetBytes(p, keys); got != want {
		t.Fatalf("SetBytes = %d, encoded length = %d", got, want)
	}
	if allocs := testing.AllocsPerRun(50, func() { rep.SetBytes(p, keys) }); allocs != 0 {
		t.Errorf("QuadRep.SetBytes: %.0f allocs/run, want 0", allocs)
	}
}

// BenchmarkBuildPlan: the per-execution plan derivation, on a snapshot
// other executions already filled (warm: the steady state of a served
// deployment and of the experiment suite) and on a fresh one (cold: the
// first execution at an instant pays the sampling).
func BenchmarkBuildPlan(b *testing.B) {
	for _, nodes := range []int{150, 1500, 100000} {
		if nodes == 100000 && testing.Short() {
			continue
		}
		dep, err := topology.GenerateParallel(topology.Config{
			Nodes: nodes, Area: topology.ScaledArea(nodes), Range: 50, Seed: 42, Repair: true,
		}, 2)
		if err != nil {
			b.Fatal(err)
		}
		tree := routing.BuildTreeParallel(dep.Neighbors, topology.BaseStation, 2)
		for _, cold := range []bool{false, true} {
			name := fmt.Sprintf("n=%d/warm", nodes)
			if cold {
				name = fmt.Sprintf("n=%d/cold", nodes)
			}
			b.Run(name, func(b *testing.B) {
				env := field.StandardEnvironment(dep.Area, 1042)
				r := NewRunnerFromSetup(dep, env, tree, SetupConfig{})
				prep, err := r.Prepare("SELECT A.temp, B.temp, A.hum, B.hum FROM Sensors A, Sensors B WHERE A.temp - B.temp > 7.5 ONCE")
				if err != nil {
					b.Fatal(err)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					at := 0.0
					if cold {
						at = float64(i + 1) // a new instant: nothing is filled yet
					}
					buildPlan(r.Exec(prep, at)).release()
				}
			})
		}
	}
}

// BenchmarkSENSJoinRound is one whole SENS-Join execution at the paper's
// scale: plan, three protocol phases on the simulator, base-station
// filter and final join.
func BenchmarkSENSJoinRound(b *testing.B) {
	r, _ := planFixture(b, 1500)
	const src = "SELECT A.temp, B.temp, A.hum, B.hum, A.pres, B.pres FROM Sensors A, Sensors B WHERE A.temp - B.temp > 7.5 ONCE"
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := r.Run(src, NewSENSJoin(), 0)
		if err != nil {
			b.Fatal(err)
		}
		if !res.Complete {
			b.Fatal("incomplete round")
		}
	}
}
