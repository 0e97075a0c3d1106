package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"sensjoin/internal/query"
	"sensjoin/internal/zorder"
)

// computeFilterReference is the filter computation before the planner
// reached the cell domain, kept unchanged as the oracle: a backtracking
// enumeration over every assignment of keys to aliases in FROM order,
// each condition checked once all its aliases are bound.
func computeFilterReference(p *plan, keys []zorder.Key) []zorder.Key {
	x := p.x
	n := len(x.Query.From)
	conds := x.Analysis.JoinConds
	if len(conds) == 0 {
		// Cross join: every key participates (if every alias has keys).
		for i := 0; i < n; i++ {
			if len(referenceKeysOfAlias(p, keys, i)) == 0 {
				return nil
			}
		}
		return append([]zorder.Key(nil), keys...)
	}
	// Constant predicates: if any is definitely false, nothing joins.
	for _, c := range x.Analysis.ConstPreds {
		if !c.Truth(emptyBounds{}).Possible() {
			return nil
		}
	}

	s := getFilterScratch()
	defer putFilterScratch(s)
	uniq := s.setUniq(keys)
	if !s.fillAliases(p, uniq, n) {
		return nil
	}
	s.fillBounds(p, uniq)
	marked := s.markedBuf(len(uniq))
	assign := make([]int32, n)
	benv := s.boundsEnv(p, assign)

	// Backtracking n-way join over keys with early pruning: a condition
	// is checked as soon as all aliases it references are bound.
	checks := referenceChecks(conds, n)

	var recurse func(level int)
	recurse = func(level int) {
		if level == n {
			for _, idx := range assign {
				marked[idx] = true
			}
			return
		}
		for _, idx := range s.aliasIdx[level] {
			assign[level] = idx
			ok := true
			for _, ci := range checks[level] {
				if !conds[ci].Truth(benv).Possible() {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			// Skip fully-marked assignments at the last level: marking
			// again adds nothing.
			if level == n-1 {
				all := marked[idx]
				if all {
					for _, prev := range assign[:level] {
						if !marked[prev] {
							all = false
							break
						}
					}
				}
				if all {
					continue
				}
			}
			recurse(level + 1)
		}
	}
	recurse(0)

	return collectMarked(uniq, marked)
}

// referenceKeysOfAlias filters keys whose flags include alias i.
func referenceKeysOfAlias(p *plan, keys []zorder.Key, i int) []zorder.Key {
	n := len(p.x.Query.From)
	flag := zorder.FlagFor(i, n)
	var out []zorder.Key
	for _, k := range keys {
		if p.grid.Flags(k)&flag != 0 {
			out = append(out, k)
		}
	}
	return out
}

// referenceChecks groups join conditions by the highest alias they
// reference: checks[l] lists the conditions that become checkable once
// alias l is bound.
func referenceChecks(conds []query.BoolExpr, n int) [][]int32 {
	checks := make([][]int32, n)
	for ci, c := range conds {
		max := 0
		c.VisitNums(func(e query.NumExpr) {
			if at, ok := e.(query.Attr); ok && at.Ref.Rel > max {
				max = at.Ref.Rel
			}
		})
		checks[max] = append(checks[max], int32(ci))
	}
	return checks
}

// planOf builds the plan of src on r and the sorted, duplicate-free key
// set the base station would hold after a lossless phase A.
func planOf(t testing.TB, r *Runner, src string) (*plan, []zorder.Key) {
	t.Helper()
	x, err := execSQL(r, src, 0)
	if err != nil {
		t.Fatalf("%q: %v", src, err)
	}
	p := buildPlan(x)
	var keys []zorder.Key
	for _, nd := range p.nodes {
		if nd.flags != 0 {
			keys = append(keys, nd.key)
		}
	}
	slices.Sort(keys)
	return p, slices.Compact(keys)
}

// sameFilter fails unless the planner's filter equals the reference key
// for key.
func sameFilter(t *testing.T, r *Runner, src string) {
	t.Helper()
	p, keys := planOf(t, r, src)
	got, want := computeFilter(p, keys), computeFilterReference(p, keys)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("filter mismatch for %q: planner %d keys, reference %d keys", src, len(got), len(want))
	}
}

// Difference and abs bands over two relations in every orientation,
// against the reference enumeration.
func TestBandFilterEqualsGeneric(t *testing.T) {
	r := testRunner(t, 250, 7)
	queries := []string{
		// Difference conditions in all orientations.
		"A.temp - B.temp > 3",
		"A.temp - B.temp >= 3",
		"B.temp - A.temp > 2.5",
		"A.temp - B.temp < -4", // == B - A > 4
		"A.temp - B.temp <= -4",
		"3 < A.temp - B.temp", // constant on the left
		// Band conditions.
		"abs(A.temp - B.temp) < 0.2",
		"abs(A.temp - B.temp) <= 0.05",
		"abs(A.temp - B.temp) < 0.2 AND distance(A.x, A.y, B.x, B.y) > 100",
		// Index condition plus extra conditions that must be re-checked.
		"A.temp - B.temp > 2 AND A.hum - B.hum > 1",
		"A.temp - B.temp > 100",  // empty filter
		"A.temp - B.temp > -100", // everything matches
	}
	for _, cond := range queries {
		sameFilter(t, r, fmt.Sprintf("SELECT A.temp, B.temp, A.hum, B.hum FROM Sensors A, Sensors B WHERE %s ONCE", cond))
	}
}

// Equality keys, sums, plain comparisons, residual-only disjunctions,
// constant predicates and a relation joined to nothing, against the
// reference enumeration.
func TestFilterShapesEqualReference(t *testing.T) {
	r := testRunner(t, 250, 17)
	two := "SELECT A.temp, B.temp FROM Sensors A, Sensors B WHERE %s ONCE"
	three := "SELECT A.temp, B.temp, C.temp FROM Sensors A, Sensors B, Sensors C WHERE %s ONCE"
	for _, src := range []string{
		fmt.Sprintf(two, "A.temp = B.temp"),                                   // equi-join
		fmt.Sprintf(two, "A.temp = B.hum"),                                    // cross-attribute equality
		fmt.Sprintf(two, "A.temp + B.hum < 50"),                               // sum band
		fmt.Sprintf(two, "abs(A.temp + B.hum) < 45"),                          // abs sum band
		fmt.Sprintf(two, "A.light < B.light"),                                 // plain comparison
		fmt.Sprintf(two, "(A.temp > B.hum OR abs(A.pres - B.pres) < 0.5)"),    // residual only
		fmt.Sprintf(two, "A.temp - B.temp > 3 AND 1 > 2"),                     // constant false
		fmt.Sprintf(two, "A.temp - B.temp > 3 AND 2 > 1"),                     // constant true
		fmt.Sprintf(three, "A.temp - B.temp > 3"),                             // C cross-joined
		fmt.Sprintf(three, "A.temp = B.temp AND abs(B.hum - C.hum) < 0.3"),    // eq, then band
		fmt.Sprintf(three, "A.temp + C.hum < 40 AND B.light - C.light > 100"), // sum, then difference
	} {
		sameFilter(t, r, src)
	}
}

// The differential: random two- and three-way joins (randomJoin, the
// fuzz tests' generator) over seeds and network sizes. Each runner's
// cases are a parallel subtest.
func TestFilterMatchesReference(t *testing.T) {
	seeds := 20
	if testing.Short() {
		seeds = 6
	}
	for _, nodes := range []int{150, 400} {
		for seed := 0; seed < seeds; seed++ {
			t.Run(fmt.Sprintf("n%d/seed%d", nodes, seed), func(t *testing.T) {
				t.Parallel()
				r := testRunner(t, nodes, int64(900+seed))
				for _, ways := range []int{2, 3} {
					rng := rand.New(rand.NewSource(int64(7000 + 10*seed + ways)))
					sameFilter(t, r, randomJoin(rng, ways, 1))
				}
			})
		}
	}
}

// semiMatchesReference is the semi-join's match before it became one
// cell join: each B-side key checked against every A-side key.
func semiMatchesReference(p *plan, bKey zorder.Key, aKeys []zorder.Key, aSide, bSide int) bool {
	x := p.x
	cellOf := func(k zorder.Key, name string) query.Interval {
		di, ok := p.dimOf(name)
		if !ok {
			return query.Everything()
		}
		_, coords := p.grid.DeinterleaveInto(k, make([]uint32, len(p.grid.Dims)))
		lo, hi := p.grid.Dims[di].Bounds(coords[di])
		return query.Interval{Lo: lo, Hi: hi}
	}
	assignment := make([]zorder.Key, len(x.Query.From))
	benv := query.CellEnv{Lookup: func(rel int, name string) query.Interval {
		return cellOf(assignment[rel], name)
	}}
	assignment[bSide] = bKey
	for _, ak := range aKeys {
		assignment[aSide] = ak
		ok := true
		for _, c := range x.Analysis.JoinConds {
			if !c.Truth(benv).Possible() {
				ok = false
				break
			}
		}
		if ok {
			return true
		}
	}
	return false
}

// The semi-join's match set is the old per-node loop's at both filter
// sides, and the method still returns the oracle's rows.
func TestSemiFilterEqualsLoop(t *testing.T) {
	r := testRunner(t, 200, 19)
	for _, src := range []string{
		qBand(0.3),
		q1,
		"SELECT A.temp, B.hum FROM Sensors A, Sensors B WHERE A.temp = B.temp AND A.light > 300 ONCE",
		"SELECT A.temp, B.hum FROM Sensors A, Sensors B WHERE A.temp + B.hum < 50 AND B.hum < 60 ONCE",
	} {
		for side := 0; side < 2; side++ {
			p, _ := planOf(t, r, src)
			aFlag, bFlag := zorder.FlagFor(side, 2), zorder.FlagFor(1-side, 2)
			var aKeys []zorder.Key
			for _, nd := range p.nodes {
				if nd.flags&aFlag != 0 {
					aKeys = append(aKeys, p.grid.WithFlags(nd.key, aFlag))
				}
			}
			matched := semiFilter(p, aKeys, aFlag, bFlag)
			for id, nd := range p.nodes {
				if nd.flags&bFlag == 0 || nd.flags&aFlag != 0 {
					continue
				}
				_, got := slices.BinarySearch(matched, p.grid.WithFlags(nd.key, bFlag))
				if want := semiMatchesReference(p, nd.key, aKeys, side, 1-side); got != want {
					t.Fatalf("%q side %d node %d: match %v, loop %v", src, side, id, got, want)
				}
			}

			x, err := execSQL(r, src, 0)
			if err != nil {
				t.Fatal(err)
			}
			truth, err := GroundTruth(x)
			if err != nil {
				t.Fatal(err)
			}
			res, err := r.Run(src, SemiJoin{FilterSide: side}, 0)
			if err != nil {
				t.Fatal(err)
			}
			sameTable(t, truth, res, fmt.Sprintf("semi-join %q side %d", src, side))
		}
	}
}

// End-to-end: the protocol on the reference filter and on the
// planner's filter returns the same rows and the same packet counts.
func TestBandIndexTransparentToProtocol(t *testing.T) {
	r := testRunner(t, 200, 13)
	for _, src := range []string{qBand(0.3), q1} {
		r.Stats.Reset()
		res1, err := r.Run(src, NewSENSJoin(), 0)
		if err != nil {
			t.Fatal(err)
		}
		tx1 := r.Stats.TotalTx(SENSPhases...)
		r.Stats.Reset()
		filterHook = computeFilterReference
		res2, err := r.Run(src, NewSENSJoin(), 0)
		filterHook = nil
		if err != nil {
			t.Fatal(err)
		}
		tx2 := r.Stats.TotalTx(SENSPhases...)
		sameTable(t, res1, res2, "planner vs reference")
		if tx1 != tx2 {
			t.Fatalf("%q: packet counts differ: %d vs %d", src, tx1, tx2)
		}
	}
}

// filterShapes is the one table of the filter's allocation pins and
// benchmarks: each shape the planner reaches, at most one per class.
var filterShapes = []struct{ name, from, where string }{
	{"diff", "Sensors A, Sensors B", "A.temp - B.temp > 3"},
	{"abs", "Sensors A, Sensors B", "abs(A.temp - B.temp) < 0.2 AND distance(A.x, A.y, B.x, B.y) > 100"},
	{"eq", "Sensors A, Sensors B", "A.temp = B.temp"},
	{"sum", "Sensors A, Sensors B", "A.temp + B.hum < 50"},
	{"threeway", "Sensors A, Sensors B, Sensors C", "A.temp - B.temp > 3 AND abs(B.temp - C.temp) < 0.2"},
}

func filterSQL(from, where string) string {
	return fmt.Sprintf("SELECT A.temp FROM %s WHERE %s ONCE", from, where)
}

// The filter runs once per round at the base station; every shape stays
// on pooled scratch. The bound is far above the steady-state count (one
// or two allocations; the plan is filled into the kernel scratch) and far
// below one per candidate, so a reintroduced per-candidate allocation
// trips it immediately.
func TestComputeFilterAllocs(t *testing.T) {
	r := testRunner(t, 400, 3)
	for _, sh := range filterShapes {
		p, keys := planOf(t, r, filterSQL(sh.from, sh.where))
		computeFilter(p, keys) // warm the scratch pool
		allocs := testing.AllocsPerRun(10, func() {
			computeFilter(p, keys)
		})
		if allocs > 100 {
			t.Errorf("computeFilter (%s): %.0f allocs/run, want <= 100", sh.name, allocs)
		}
	}
}

var filterSink []zorder.Key

// BenchmarkFilter reports the filter's cost per shape at 800 nodes;
// reference is the old enumeration on the abs shape.
func BenchmarkFilter(b *testing.B) {
	r, err := NewRunner(SetupConfig{Nodes: 800, Seed: 3})
	if err != nil {
		b.Fatal(err)
	}
	run := func(name, src string, filter func(*plan, []zorder.Key) []zorder.Key) {
		p, keys := planOf(b, r, src)
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				filterSink = filter(p, keys)
			}
		})
	}
	for _, sh := range filterShapes {
		run(sh.name, filterSQL(sh.from, sh.where), computeFilter)
	}
	run("reference", filterSQL(filterShapes[1].from, filterShapes[1].where), computeFilterReference)
}
