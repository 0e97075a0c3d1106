package core

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"sensjoin/internal/query"
	"sensjoin/internal/topology"
	"sensjoin/internal/zorder"
)

// exactJoinReference is the seed's nested-loop join, kept verbatim as
// the differential-test oracle for the predicate-indexed kernel.
func exactJoinReference(x *Exec, cols columnSource, tuples []finalTuple) ([]Row, map[topology.NodeID]bool) {
	n := len(x.Query.From)
	conds := x.Analysis.JoinConds
	for _, c := range x.Analysis.ConstPreds {
		if !c.Eval(query.TupleEnv{Lookup: func(int, string) float64 { return 0 }}) {
			return nil, nil
		}
	}
	byAlias := make([][]finalTuple, n)
	for i := 0; i < n; i++ {
		flag := zorder.FlagFor(i, n)
		for _, t := range tuples {
			if t.flags&flag != 0 {
				byAlias[i] = append(byAlias[i], t)
			}
		}
		if len(byAlias[i]) == 0 {
			return nil, nil
		}
	}

	type slotRef struct {
		name string
		slot int
	}
	slotsOf := make([][]slotRef, n)
	nextSlot := 0
	resolve := func(ref query.AttrRef) int {
		for _, s := range slotsOf[ref.Rel] {
			if s.name == ref.Name {
				return s.slot
			}
		}
		slotsOf[ref.Rel] = append(slotsOf[ref.Rel], slotRef{ref.Name, nextSlot})
		nextSlot++
		return nextSlot - 1
	}

	condsAtLevel := make([][]query.CompiledBool, n)
	for _, c := range conds {
		max := 0
		c.VisitNums(func(e query.NumExpr) {
			if at, ok := e.(query.Attr); ok && at.Ref.Rel > max {
				max = at.Ref.Rel
			}
		})
		condsAtLevel[max] = append(condsAtLevel[max], query.CompileBool(c, resolve))
	}
	selects := make([]query.CompiledNum, len(x.Query.Select))
	for i, it := range x.Query.Select {
		selects[i] = query.CompileNum(it.Expr, resolve)
	}
	groupBy := make([]query.CompiledNum, len(x.Query.GroupBy))
	for i, e := range x.Query.GroupBy {
		groupBy[i] = query.CompileNum(e, resolve)
	}

	pre := make([][]float64, n)
	for level, ts := range byAlias {
		slots := slotsOf[level]
		flat := make([]float64, len(ts)*len(slots))
		for ti, t := range ts {
			for k, s := range slots {
				flat[ti*len(slots)+k] = cols.Column(s.name)[t.node]
			}
		}
		pre[level] = flat
	}

	assignment := make([]finalTuple, n)
	vals := make([]float64, nextSlot)

	var rows []Row
	contrib := make(map[topology.NodeID]bool)
	agg := newAggState(x.Query.Select)
	aggregated := hasAggregates(x.Query.Select)
	grouped := len(x.Query.GroupBy) > 0
	groups := make(map[string]*aggState)
	var groupKeys []string

	var recurse func(level int)
	recurse = func(level int) {
		if level == n {
			row := make(Row, len(selects))
			for i, f := range selects {
				row[i] = f(vals)
			}
			for _, t := range assignment {
				contrib[t.node] = true
			}
			switch {
			case grouped:
				key := groupKeyOfCompiled(groupBy, vals)
				g := groups[key]
				if g == nil {
					g = newAggState(x.Query.Select)
					groups[key] = g
					groupKeys = append(groupKeys, key)
				}
				g.add(row)
			case aggregated:
				agg.add(row)
			default:
				rows = append(rows, row)
			}
			return
		}
		slots := slotsOf[level]
		flat := pre[level]
		for ti, t := range byAlias[level] {
			assignment[level] = t
			for k, s := range slots {
				vals[s.slot] = flat[ti*len(slots)+k]
			}
			ok := true
			for _, c := range condsAtLevel[level] {
				if !c(vals) {
					ok = false
					break
				}
			}
			if ok {
				recurse(level + 1)
			}
		}
	}
	recurse(0)

	switch {
	case grouped:
		sort.Strings(groupKeys)
		for _, key := range groupKeys {
			rows = append(rows, groups[key].rows()...)
		}
	case aggregated:
		rows = agg.rows()
	}
	return applyOrderLimit(x.Query, rows), contrib
}

// kernelCols is the kernel tests' columnSource: synthetic sensor values
// (attribute name -> values by node id) in place of an environment
// snapshot. Every attribute the query reads must be present.
type kernelCols map[string][]float64

func (c kernelCols) Column(name string) []float64 { return c[name] }

// kernelExec builds an Exec that exercises only the base-station join
// (no simulator, no catalog).
func kernelExec(t testing.TB, src string) *Exec {
	t.Helper()
	q, err := query.Parse(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	a, err := query.Analyze(q)
	if err != nil {
		t.Fatalf("analyze %q: %v", src, err)
	}
	return &Exec{Query: q, Analysis: a, prog: compileKernel(q, a)}
}

// kernelTuples synthesizes count tuples with the standard attributes,
// random alias membership and deterministic values. Tuples carry only a
// node id; the values come back as columns indexed by node id, for the
// join's columnSource.
func kernelTuples(rng *rand.Rand, count, nAliases int) ([]finalTuple, kernelCols) {
	cols := make(kernelCols)
	for _, name := range []string{"temp", "hum", "pres", "light", "x", "y", "bucket"} {
		cols[name] = make([]float64, count+1)
	}
	tuples := make([]finalTuple, 0, count)
	for i := 0; i < count; i++ {
		id := i + 1
		cols["temp"][id] = rng.Float64() * 40
		cols["hum"][id] = 30 + rng.Float64()*60
		cols["pres"][id] = 990 + rng.Float64()*40
		cols["light"][id] = rng.Float64() * 1000
		cols["x"][id] = rng.Float64() * 1000
		cols["y"][id] = rng.Float64() * 1000
		cols["bucket"][id] = math.Floor(cols["temp"][id])
		flags := uint64(rng.Intn(1<<nAliases-1) + 1)
		tuples = append(tuples, finalTuple{node: topology.NodeID(id), flags: flags})
	}
	return tuples, cols
}

// contribEqual reports whether the kernel's contributor list is the
// reference's set: ascending, once each, nothing missing.
func contribEqual(got []topology.NodeID, want map[topology.NodeID]bool) bool {
	if len(got) != len(want) {
		return false
	}
	for i, id := range got {
		if !want[id] || (i > 0 && got[i-1] >= id) {
			return false
		}
	}
	return true
}

// kernelRandomQuery generates joins over 2 or 3 relations mixing every
// conjunct class the kernel distinguishes: equalities, difference/band/
// sum constraints, residuals, plus GROUP BY, aggregates and ORDER BY.
func kernelRandomQuery(rng *rand.Rand, nAliases int) string {
	aliases := []string{"A", "B", "C"}[:nAliases]
	attrs := []string{"temp", "hum", "pres", "light", "bucket"}
	pick := func() string { return attrs[rng.Intn(len(attrs))] }
	pair := func() (string, string) {
		i := rng.Intn(nAliases)
		j := rng.Intn(nAliases - 1)
		if j >= i {
			j++
		}
		return aliases[i], aliases[j]
	}

	var conds []string
	for i, n := 0, 1+rng.Intn(3); i < n; i++ {
		l, r := pair()
		switch rng.Intn(7) {
		case 0:
			conds = append(conds, fmt.Sprintf("%s.bucket = %s.bucket", l, r))
		case 1:
			conds = append(conds, fmt.Sprintf("%s.%s - %s.%s > %.2f", l, pick(), r, pick(), rng.Float64()*20))
		case 2:
			a := pick()
			conds = append(conds, fmt.Sprintf("abs(%s.%s - %s.%s) < %.2f", l, a, r, a, rng.Float64()*3))
		case 3:
			conds = append(conds, fmt.Sprintf("%s.%s + %s.%s < %.1f", l, pick(), r, pick(), 30+rng.Float64()*100))
		case 4:
			conds = append(conds, fmt.Sprintf("distance(%s.x, %s.y, %s.x, %s.y) > %.0f", l, l, r, r, 100+rng.Float64()*500))
		case 5:
			conds = append(conds, fmt.Sprintf("%s.%s < %s.%s", l, pick(), r, pick()))
		default:
			conds = append(conds, fmt.Sprintf("(%s.temp > %s.temp OR %s.hum < %s.hum)", l, r, l, r))
		}
	}

	var sel []string
	for i, n := 0, 1+rng.Intn(2); i < n; i++ {
		sel = append(sel, aliases[rng.Intn(nAliases)]+"."+pick())
	}
	suffix := ""
	switch rng.Intn(4) {
	case 0: // aggregates: order of float accumulation must match
		for i := range sel {
			sel[i] = []string{"SUM", "AVG", "MIN", "COUNT"}[rng.Intn(4)] + "(" + sel[i] + ")"
		}
	case 1: // grouped
		g := aliases[0] + ".bucket"
		sel = append([]string{g}, "SUM("+sel[0]+")")
		suffix = " GROUP BY " + g
	case 2: // ordered and limited
		suffix = fmt.Sprintf(" ORDER BY 1 LIMIT %d", 1+rng.Intn(20))
	}
	var from []string
	for _, a := range aliases {
		from = append(from, "Sensors "+a)
	}
	return fmt.Sprintf("SELECT %s FROM %s WHERE %s%s ONCE",
		strings.Join(sel, ", "), strings.Join(from, ", "), strings.Join(conds, " AND "), suffix)
}

// The kernel must reproduce the nested loop exactly — same rows, same
// order, bit-identical floats (including SUM/AVG accumulation order),
// same contributing nodes — over randomized queries and tuple sets.
func TestJoinKernelMatchesNestedLoop(t *testing.T) {
	const iterations = 120
	for i := 0; i < iterations; i++ {
		rng := rand.New(rand.NewSource(int64(9000 + i)))
		nAliases := 2
		if i%4 == 3 {
			nAliases = 3
		}
		src := kernelRandomQuery(rng, nAliases)
		x := kernelExec(t, src)
		count := 30 + rng.Intn(120)
		if nAliases == 3 {
			count = 20 + rng.Intn(40)
		}
		tuples, cols := kernelTuples(rng, count, nAliases)

		got := exactJoinOver(x, cols, tuples, true)
		gotRows, gotContrib := got.rows, got.contrib
		wantRows, wantContrib := exactJoinReference(x, cols, tuples)
		if !rowsEqual(gotRows, wantRows) {
			t.Fatalf("iter %d: %q\nkernel rows (%d) differ from nested loop (%d)",
				i, src, len(gotRows), len(wantRows))
		}
		if !contribEqual(gotContrib, wantContrib) {
			t.Fatalf("iter %d: %q\ncontrib %d nodes, want %d", i, src, len(gotContrib), len(wantContrib))
		}
	}
}

// When the smallest relation is not the first one the plan starts at a
// later level, the ranks of one outer tuple are scattered over the whole
// list, and the replay needs the global sort (a plan that starts at
// level 0 sorts each outer tuple's run instead). Both branches must
// replay in nested-loop order: rows, SUM accumulation and contributors.
func TestJoinKernelPlanStartingAtLaterLevel(t *testing.T) {
	for i, where := range []string{
		"A.temp - B.temp > 5",
		"A.bucket = B.bucket",
		"abs(A.hum - B.hum) < 2 AND A.light < B.light",
		"A.bucket = B.bucket AND B.temp - C.temp > 10",
	} {
		rng := rand.New(rand.NewSource(int64(700 + i)))
		nAliases := 2 + strings.Count(where, "C.")
		tuples, cols := kernelTuples(rng, 90, nAliases)
		for k := range tuples {
			// Everything is in A, a third in B, a fifth in C.
			tuples[k].flags = zorder.FlagFor(0, nAliases)
			if k%3 == 0 {
				tuples[k].flags |= zorder.FlagFor(1, nAliases)
			}
			if nAliases == 3 && k%5 == 0 {
				tuples[k].flags |= zorder.FlagFor(2, nAliases)
			}
		}
		from := "Sensors A, Sensors B, Sensors C"[:len("Sensors A, Sensors B")+(nAliases-2)*len(", Sensors C")]
		for _, sel := range []string{"A.temp, B.hum", "SUM(A.temp - B.pres), COUNT(B.hum)"} {
			src := "SELECT " + sel + " FROM " + from + " WHERE " + where + " ONCE"
			x := kernelExec(t, src)
			var gotRows []Row
			var gotContrib []topology.NodeID
			plans := capturePlans(func() {
				got := exactJoinOver(x, cols, tuples, true)
				gotRows, gotContrib = got.rows, got.contrib
			})
			if len(plans) != 1 || plans[0].Order[0] == 0 || plans[0].Streamed {
				t.Fatalf("%q: plan %+v, want an indexed plan starting after level 0", src, plans)
			}
			wantRows, wantContrib := exactJoinReference(x, cols, tuples)
			if len(wantRows) == 0 {
				t.Fatalf("%q: empty result proves nothing", src)
			}
			if !rowsEqual(gotRows, wantRows) {
				t.Errorf("%q: kernel rows (%d) differ from nested loop (%d)", src, len(gotRows), len(wantRows))
			}
			if !contribEqual(gotContrib, wantContrib) {
				t.Errorf("%q: contrib %d nodes, want %d", src, len(gotContrib), len(wantContrib))
			}
		}
	}
}

// Adversarial values: ±0, boundary-exact matches, +Inf and NaN must not
// change results relative to the nested loop.
func TestJoinKernelSpecialValues(t *testing.T) {
	queries := []string{
		"SELECT A.temp, B.temp FROM Sensors A, Sensors B WHERE A.temp = B.temp ONCE",
		"SELECT A.temp, B.temp FROM Sensors A, Sensors B WHERE A.temp - B.temp > 1 ONCE",
		"SELECT A.temp, B.temp FROM Sensors A, Sensors B WHERE abs(A.temp - B.temp) <= 1 ONCE",
		"SELECT A.temp, B.temp FROM Sensors A, Sensors B WHERE A.temp < B.temp ONCE",
	}
	specials := []float64{0, math.Copysign(0, -1), 1, -1, 2, 1.5,
		math.Inf(1), math.Inf(-1), math.NaN(), math.MaxFloat64, -math.MaxFloat64}
	var tuples []finalTuple
	temp := []float64{0} // node 0 is the base station
	for _, v := range specials {
		for alias := 0; alias < 2; alias++ {
			tuples = append(tuples, finalTuple{
				node:  topology.NodeID(len(temp)),
				flags: zorder.FlagFor(alias, 2),
			})
			temp = append(temp, v)
		}
	}
	cols := kernelCols{"temp": temp}
	for _, src := range queries {
		x := kernelExec(t, src)
		got := exactJoinOver(x, cols, tuples, true)
		gotRows, gotContrib := got.rows, got.contrib
		wantRows, wantContrib := exactJoinReference(x, cols, tuples)
		if !rowsEqual(gotRows, wantRows) {
			t.Fatalf("%q: kernel %d rows, nested loop %d rows", src, len(gotRows), len(wantRows))
		}
		if !contribEqual(gotContrib, wantContrib) {
			t.Fatalf("%q: contrib differs", src)
		}
	}
}

// An equality level's value index is made anew once it has held more
// than four times the tuples a join indexes: a map never shrinks, and
// clearing one an earlier large join grew would cost every later small
// join on the runner. Below that it is cleared and reused.
func TestJoinKernelHashIndexShrinks(t *testing.T) {
	x := kernelExec(t, "SELECT A.x, B.x FROM Sensors A, Sensors B WHERE A.x = B.x ONCE")
	index := func(count int) (map[float64]int32, int) {
		t.Helper()
		tuples, cols := kernelTuples(rand.New(rand.NewSource(int64(count))), count, 2)
		got := exactJoinOver(x, cols, tuples, true)
		wantRows, _ := exactJoinReference(x, cols, tuples)
		if !rowsEqual(got.rows, wantRows) {
			t.Fatalf("%d tuples: kernel %d rows, nested loop %d rows", count, len(got.rows), len(wantRows))
		}
		got.block.release()
		for _, pr := range x.run().kernel.probes {
			if pr.head != nil {
				return pr.head, pr.headPeak
			}
		}
		t.Fatalf("%d tuples: no hash level", count)
		return nil, 0
	}
	ptr := func(m map[float64]int32) uintptr { return reflect.ValueOf(m).Pointer() }
	large, peak := index(2000)
	if peak < 1000 {
		t.Fatalf("2000 tuples over two aliases indexed %d values", peak)
	}
	if small, peak := index(100); ptr(small) == ptr(large) || peak > 100 {
		t.Errorf("after a 2000-tuple join a 100-tuple join kept the index (peak %d values)", peak)
	}
	reused, _ := index(100)
	if again, _ := index(90); ptr(again) != ptr(reused) {
		t.Errorf("a 90-tuple join after a 100-tuple one made a new index")
	}
}

// capturePlans records every kernel plan produced during fn.
func capturePlans(fn func()) []joinPlanInfo {
	var plans []joinPlanInfo
	joinPlanHook = func(p joinPlanInfo) { plans = append(plans, p) }
	defer func() { joinPlanHook = nil }()
	fn()
	return plans
}

// The planner must pick the expected access path per shape: hash for
// equalities, band windows for difference/band conditions, and the
// streaming scan for residual-only joins.
func TestJoinPlannerAccessPaths(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	tuples, cols := kernelTuples(rng, 80, 2)
	cases := []struct {
		where    string
		paths    []string
		streamed bool
	}{
		{"A.bucket = B.bucket", []string{"scan", "hash"}, false},
		{"A.temp - B.temp > 5", []string{"scan", "band"}, false},
		{"abs(A.temp - B.temp) < 0.5", []string{"scan", "band"}, false},
		{"A.bucket = B.bucket AND A.temp - B.temp > 1", []string{"scan", "hash"}, false},
		{"distance(A.x, A.y, B.x, B.y) > 100", []string{"scan", "scan"}, true},
		{"(A.temp > B.temp OR A.hum < B.hum)", []string{"scan", "scan"}, true},
	}
	for _, c := range cases {
		src := "SELECT A.temp, B.temp FROM Sensors A, Sensors B WHERE " + c.where + " ONCE"
		x := kernelExec(t, src)
		plans := capturePlans(func() { exactJoinOver(x, cols, tuples, true) })
		if len(plans) != 1 {
			t.Fatalf("%q: %d plans, want 1", c.where, len(plans))
		}
		p := plans[0]
		if strings.Join(p.Paths, ",") != strings.Join(c.paths, ",") {
			t.Errorf("%q: paths %v, want %v", c.where, p.Paths, c.paths)
		}
		if p.Streamed != c.streamed {
			t.Errorf("%q: streamed=%t, want %t", c.where, p.Streamed, c.streamed)
		}
	}
}

// A three-way chain must order levels so each probe connects to a bound
// level, and every level after the first must be indexed.
func TestJoinPlannerThreeWayChain(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	tuples, cols := kernelTuples(rng, 40, 3)
	src := "SELECT A.temp FROM Sensors A, Sensors B, Sensors C " +
		"WHERE A.bucket = B.bucket AND abs(B.temp - C.temp) < 2 ONCE"
	x := kernelExec(t, src)
	plans := capturePlans(func() { exactJoinOver(x, cols, tuples, true) })
	if len(plans) != 1 {
		t.Fatalf("%d plans, want 1", len(plans))
	}
	p := plans[0]
	for i, path := range p.Paths[1:] {
		if path == "scan" {
			t.Fatalf("position %d fell back to scan: %+v", i+1, p)
		}
	}
	// Exact row agreement under the permuted join order.
	gotRows := exactJoinOver(x, cols, tuples, true).rows
	wantRows, _ := exactJoinReference(x, cols, tuples)
	if !rowsEqual(gotRows, wantRows) {
		t.Fatalf("3-way chain rows differ: kernel %d, nested loop %d", len(gotRows), len(wantRows))
	}
}

// benchTuples builds a realistic base-station tuple set: one tuple per
// node, all nodes in both aliases (the experiment workloads are
// self-joins).
func benchTuples(count int) ([]finalTuple, kernelCols) {
	rng := rand.New(rand.NewSource(7))
	tuples, cols := kernelTuples(rng, count, 2)
	for i := range tuples {
		tuples[i].flags = zorder.FlagFor(0, 2) | zorder.FlagFor(1, 2)
	}
	return tuples, cols
}

// benchmarkJoin times join, the kernel or the reference, whichever form
// its contributors come in (C).
func benchmarkJoin[C any](b *testing.B, src string, count int,
	join func(*Exec, columnSource, []finalTuple) ([]Row, C)) {
	x := kernelExec(b, src)
	tuples, cols := benchTuples(count)
	rows, _ := join(x, cols, tuples)
	b.ReportMetric(float64(len(rows)), "rows")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		join(x, cols, tuples)
	}
}

// qBenchBand is the paper-shaped band self-join (Q1 family) at a
// selectivity near the calibrated experiment range.
const qBenchBand = "SELECT A.temp, B.temp, A.hum, B.hum FROM Sensors A, Sensors B WHERE A.temp - B.temp > 32 ONCE"

// qBenchEqui joins on a quantized attribute (~40 distinct values over
// 1500 tuples).
const qBenchEqui = "SELECT A.temp, B.temp FROM Sensors A, Sensors B WHERE A.bucket = B.bucket AND A.temp - B.temp > 0.5 ONCE"

// releasedJoin is the kernel for a caller that drops the rows at once:
// their block goes back to the runner, so a warm join allocates nothing
// for its result (the rows returned must not be read).
func releasedJoin(x *Exec, cols columnSource, tuples []finalTuple) ([]Row, []topology.NodeID) {
	out := exactJoinOver(x, cols, tuples, true)
	out.block.release()
	return out.rows, out.contrib
}

func BenchmarkExactJoin(b *testing.B) {
	b.Run("band-1500", func(b *testing.B) { benchmarkJoin(b, qBenchBand, 1500, releasedJoin) })
	b.Run("equi-1500", func(b *testing.B) { benchmarkJoin(b, qBenchEqui, 1500, releasedJoin) })
	b.Run("band-400", func(b *testing.B) { benchmarkJoin(b, qBenchBand, 400, releasedJoin) })
}

// BenchmarkExactJoinReference measures the seed's nested loop on the
// same shapes, so one benchmark run shows the kernel's speedup.
func BenchmarkExactJoinReference(b *testing.B) {
	b.Run("band-1500", func(b *testing.B) { benchmarkJoin(b, qBenchBand, 1500, exactJoinReference) })
	b.Run("equi-1500", func(b *testing.B) { benchmarkJoin(b, qBenchEqui, 1500, exactJoinReference) })
	b.Run("band-400", func(b *testing.B) { benchmarkJoin(b, qBenchBand, 400, exactJoinReference) })
}

// A plan is filled into a plan store: on a warm store a two-way plan —
// its order, bound set, positions, conjunct lists and rank strides —
// allocates nothing, and it is the plan a fresh store gets.
func TestPlanJoinWarmAllocs(t *testing.T) {
	x := kernelExec(t, "SELECT A.temp FROM Sensors A, Sensors B WHERE A.temp - B.temp > 3 AND A.hum < B.hum AND B.pres > 1000 ONCE")
	lens := []int{40, 30}
	plan := func(ps *planStore) joinPlan {
		if _, ok := ps.rankStrides(2, lens); !ok {
			t.Fatal("rank strides overflow two small levels")
		}
		return planJoin(ps, 2, lens, x.prog.shape, x.prog.condRels)
	}
	var warm planStore
	plan(&warm)
	if allocs := testing.AllocsPerRun(100, func() { plan(&warm) }); allocs != 0 {
		t.Errorf("a warm two-way plan allocates %.0f times, want 0", allocs)
	}
	got, want := plan(&warm), plan(new(planStore))
	if got.order[1].path != pathBand {
		t.Fatalf("fixture drifted: second level is a %v, want band", got.order[1].path)
	}
	for pos := range want.order {
		g, w := got.order[pos], want.order[pos]
		if g.level != w.level || g.path != w.path || !slices.Equal(g.conds, w.conds) {
			t.Errorf("position %d: warm store plans %+v, a fresh one %+v", pos, g, w)
		}
	}
}
