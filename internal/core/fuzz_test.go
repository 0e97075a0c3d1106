package core

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"sensjoin/internal/netsim"
	"sensjoin/internal/tabledigest"
	"sensjoin/internal/topology"
	"sensjoin/internal/trace"
)

// randomQuery generates a random two-relation join from a small grammar:
// 1-3 join conditions (difference, band, distance, attribute equality),
// optional local predicates, and a random SELECT list. It exercises the
// "any number and any kind of join conditions" requirement end to end.
func randomQuery(rng *rand.Rand) string { return randomJoin(rng, 2, 1) }

// randomJoin is randomQuery over ways relations (2 or 3: a third relation
// C joins B through a narrow band and adds a column) with every
// join-condition constant multiplied by scale. Structure and local
// predicates depend on the draws alone, so two queries drawn from equal
// rng states at different scales are compatible: one QueryGroup cluster.
func randomJoin(rng *rand.Rand, ways int, scale float64) string {
	attrs := []string{"temp", "hum", "pres", "light"}
	pick := func() string { return attrs[rng.Intn(len(attrs))] }

	var conds []string
	nConds := 1 + rng.Intn(3)
	for i := 0; i < nConds; i++ {
		switch rng.Intn(5) {
		case 0: // difference
			conds = append(conds, fmt.Sprintf("A.%s - B.%s > %.2f", pick(), pick(), scale*rng.Float64()*8))
		case 1: // band
			a := pick()
			conds = append(conds, fmt.Sprintf("abs(A.%s - B.%s) < %.2f", a, a, scale*rng.Float64()*2))
		case 2: // distance
			op := ">"
			if rng.Intn(2) == 0 {
				op = "<"
			}
			conds = append(conds, fmt.Sprintf("distance(A.x, A.y, B.x, B.y) %s %.0f", op, scale*(50+rng.Float64()*200)))
		case 3: // arithmetic combination
			conds = append(conds, fmt.Sprintf("A.%s + B.%s < %.1f", pick(), pick(), scale*(20+rng.Float64()*1000)))
		default: // disjunction across relations
			conds = append(conds, fmt.Sprintf("(A.%s > B.%s OR abs(A.%s - B.%s) < %.2f)",
				pick(), pick(), pick(), pick(), scale*rng.Float64()))
		}
	}
	// Occasionally a local predicate.
	if rng.Intn(3) == 0 {
		conds = append(conds, fmt.Sprintf("A.light > %.0f", rng.Float64()*600))
	}
	if rng.Intn(4) == 0 {
		conds = append(conds, fmt.Sprintf("B.hum < %.0f", 30+rng.Float64()*60))
	}

	var sel []string
	nSel := 1 + rng.Intn(3)
	for i := 0; i < nSel; i++ {
		sel = append(sel, "A."+pick(), "B."+pick())
	}
	from := "Sensors A, Sensors B"
	if ways == 3 {
		a := pick()
		conds = append(conds, fmt.Sprintf("abs(B.%s - C.%s) < %.2f", a, a, scale*(0.05+rng.Float64()*0.2)))
		sel = append(sel, "C."+pick())
		from += ", Sensors C"
	}
	return fmt.Sprintf("SELECT %s FROM %s WHERE %s ONCE",
		strings.Join(sel, ", "), from, strings.Join(conds, " AND "))
}

// Random queries on random topologies: SENS-Join must always match the
// oracle exactly, never report incomplete, and quantization must never
// lose result rows. This is the repository's strongest end-to-end
// property test.
func TestFuzzRandomQueriesMatchOracle(t *testing.T) {
	const iterations = 40
	for i := 0; i < iterations; i++ {
		rng := rand.New(rand.NewSource(int64(1000 + i)))
		r := testRunner(t, 60+rng.Intn(60), int64(500+i))
		src := randomQuery(rng)
		x, err := execSQL(r, src, 0)
		if err != nil {
			t.Fatalf("iter %d: parse %q: %v", i, src, err)
		}
		truth, err := GroundTruth(x)
		if err != nil {
			t.Fatalf("iter %d: oracle: %v", i, err)
		}
		res, err := r.Run(src, NewSENSJoin(), 0)
		if err != nil {
			t.Fatalf("iter %d: run %q: %v", i, src, err)
		}
		sameTable(t, truth, res, fmt.Sprintf("iter %d %q", i, src))
	}
}

// The same property under the external join and the raw-representation
// variant, with fewer iterations (they share most machinery).
func TestFuzzVariantsMatchOracle(t *testing.T) {
	for i := 0; i < 12; i++ {
		rng := rand.New(rand.NewSource(int64(2000 + i)))
		r := testRunner(t, 50+rng.Intn(40), int64(700+i))
		src := randomQuery(rng)
		x, err := execSQL(r, src, 0)
		if err != nil {
			t.Fatal(err)
		}
		truth, err := GroundTruth(x)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range []Method{External{}, &SENSJoin{Options: Options{Rep: RawRep{}}}} {
			res, err := r.Run(src, m, 0)
			if err != nil {
				t.Fatalf("iter %d %s: %v", i, m.Name(), err)
			}
			sameTable(t, truth, res, m.Name())
		}
	}
}

// fuzzRound is one FuzzRoundIsExact input decoded: a deployment, a query
// (or a two-member QueryGroup cluster of it), a method, a shard count and
// the faults, run over a number of 30 s epochs.
type fuzzRound struct {
	seed     int64
	nodes    int
	ways     int
	method   int // fuzzMethods index; len(fuzzMethods) is the group cluster
	shards   int
	loss     bool
	reliable bool
	churn    bool
	epochs   int
	// withoutRows adds a leg run WithoutRows at the round's shard count.
	withoutRows bool
}

// fuzzMethods are the methods a round can use; SemiJoin joins two
// relations only, so a three-way round maps it to SENS-Join.
var fuzzMethods = []func(epochs int) Method{
	func(epochs int) Method {
		if epochs > 1 {
			return NewContinuousSENSJoin()
		}
		return NewSENSJoin()
	},
	func(int) Method { return External{} },
	func(int) Method { return Mediated{} },
	func(int) Method { return SemiJoin{} },
}

// decodeFuzzRound maps the fuzz inputs onto a round. knobs' bits: 0 three
// relations, 1-3 method (mod 5), 4-5 shards (mod 3: 0, 2, 4), 6 5% loss,
// 7 reliable transport, 8 1% churn, 9-10 epochs - 1, 11 a WithoutRows leg.
func decodeFuzzRound(seed int64, nodes, knobs uint16) fuzzRound {
	c := fuzzRound{
		seed:     seed,
		nodes:    30 + int(nodes)%271,
		ways:     2 + int(knobs&1),
		method:   int(knobs>>1&7) % (len(fuzzMethods) + 1),
		shards:   []int{0, 2, 4}[int(knobs>>4&3)%3],
		loss:     knobs>>6&1 == 1,
		reliable: knobs>>7&1 == 1,
		churn:    knobs>>8&1 == 1,
		epochs:   1 + int(knobs>>9&3),

		withoutRows: knobs>>11&1 == 1,
	}
	if c.ways == 3 {
		c.nodes = min(c.nodes, 60) // a three-way result grows with n³: 150 nodes took 1.1 GB
		if c.method == 3 {
			c.method = 0
		}
	}
	return c
}

// fuzzOutcome is what a round lets its caller see, per epoch and member:
// the result table, every other result field, then every node's packets.
type fuzzOutcome struct {
	tables  []tabledigest.Table[Row]
	fields  []string
	packets []string
}

// run executes the round on a runner with the given shard count and
// checks the round invariant on every result: rows equal the ground
// truth taken before the round, or the result is flagged incomplete with
// a reason — and the six audit passes are clean. withoutRows runs the
// round WithoutRows and unaudited instead, and checks only that no rows
// come back. It reports skip when the method refuses the query.
func (c fuzzRound) run(t *testing.T, shards int, withoutRows bool) (out fuzzOutcome, skip bool) {
	t.Helper()
	r, err := NewRunner(SetupConfig{Nodes: c.nodes, Seed: c.seed, Shards: shards, Private: true, SetupWorkers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if c.churn {
		r.AttachChurn(netsim.ChurnConfig{Seed: c.seed, Rate: 0.01, Epoch: 30})
	}
	var preps []*Prepared
	for _, scale := range []float64{1, 1.25} {
		p, err := r.Prepare(randomJoin(rand.New(rand.NewSource(c.seed)), c.ways, scale))
		if err != nil {
			t.Fatal(err)
		}
		preps = append(preps, p)
	}
	var (
		m Method
		g *QueryGroup
	)
	if c.method < len(fuzzMethods) {
		m, preps = fuzzMethods[c.method](c.epochs), preps[:1]
	} else {
		g = NewQueryGroup(Options{})
		for _, p := range preps {
			if _, err := g.Add(p); err != nil {
				return out, true
			}
		}
	}
	rec := trace.New()
	opts := []RunOption{Traced(rec), Audited()}
	if withoutRows {
		opts = []RunOption{Traced(rec), WithoutRows()}
	}
	if c.reliable {
		opts = append(opts, WithReliable(netsim.ReliableConfig{}))
	}
	if c.loss {
		opts = append(opts, WithLoss(0.05, c.seed))
	}
	for e := 0; e < c.epochs; e++ {
		at := float64(e) * 30
		horizon := r.Sim.Now() + 30
		if r.churn != nil {
			r.churn.Cover(horizon)
		}
		var truths []*Result
		for _, p := range preps {
			truth, err := GroundTruth(r.Exec(p, at))
			if err != nil {
				t.Fatal(err)
			}
			truths = append(truths, truth)
		}
		mark := rec.Mark()
		var results []*Result
		if g != nil {
			results, err = g.RunRound(r, at, opts...)
		} else {
			var res *Result
			res, err = r.RunPrepared(preps[0], m, at, opts...)
			results = []*Result{res}
		}
		if err != nil {
			if shards == 0 && e == 0 {
				return out, true // the method refuses the query
			}
			t.Fatalf("shards=%d epoch %d: %v", shards, e, err)
		}
		for j, res := range results {
			out.fields = append(out.fields, fmt.Sprintf("epoch %d member %d complete=%t %q missing=%v contributing=%d members=%d attempts=%d recovery=%d repairs=%d at %g response=%g",
				e, j, res.Complete, res.IncompleteReason, res.MissingSubtrees, res.ContributingNodes, res.MemberNodes,
				res.Attempts, res.RecoveryRounds, res.Repairs, res.RepairLatency, res.ResponseTime))
			if withoutRows {
				if res.Rows != nil {
					t.Fatalf("shards=%d epoch %d member %d: %d rows WithoutRows", shards, e, j, len(res.Rows))
				}
				continue
			}
			exact := sameRowSet(truths[j].Rows, res.Rows)
			if res.Complete && !exact {
				t.Fatalf("shards=%d epoch %d member %d: complete but %d rows, ground truth %d", shards, e, j, len(res.Rows), len(truths[j].Rows))
			}
			if !res.Complete && res.IncompleteReason == "" {
				t.Fatalf("shards=%d epoch %d member %d: incomplete without a reason", shards, e, j)
			}
			violations := res.Violations
			if r.churn == nil {
				violations = append(violations, trace.ChurnSafety(rec.JournalSince(mark), trace.ChurnVerdict{
					Complete: res.Complete, OracleExact: exact, Reason: res.IncompleteReason,
					MissingSubtrees: len(res.MissingSubtrees), Repairs: res.Repairs,
				})...)
			}
			if len(violations) > 0 {
				t.Fatalf("shards=%d epoch %d member %d: %d audit violation(s), first: %s", shards, e, j, len(violations), violations[0])
			}
			out.tables = append(out.tables, res.Table())
		}
		rec.Truncate(mark)
		r.Sim.RunUntil(horizon)
	}
	for id := 0; id < r.Dep.N(); id++ {
		tx, _ := r.Stats.NodeTx(topology.NodeID(id))
		rx, _ := r.Stats.NodeRx(topology.NodeID(id))
		out.packets = append(out.packets, fmt.Sprintf("%d:%d/%d", id, tx, rx))
	}
	return out, false
}

// FuzzRoundIsExact owns the round invariant across the whole feature
// matrix — method or shared cluster × shard count × loss × reliable
// transport × churn × epochs × WithoutRows: every result is oracle-exact
// or flagged incomplete with a reason, the six audits are clean, a
// sharded round is the one-region round (each result table, rows in any
// order, and every node's packets), and a round run WithoutRows is the one-region round but for
// its rows (every other result field, every node's packets). Failing
// inputs found by the fuzzer are kept under testdata/fuzz as regression
// tests.
func FuzzRoundIsExact(f *testing.F) {
	// The seeds and node counts of TestFuzzRandomQueriesMatchOracle's
	// loop, their knobs walking the feature matrix.
	for i := 0; i < 40; i++ {
		n := 60 + rand.New(rand.NewSource(int64(1000+i))).Intn(60)
		f.Add(int64(1000+i), uint16(n-30), uint16(i*0x2b5))
	}
	f.Fuzz(func(t *testing.T, seed int64, nodes, knobs uint16) {
		c := decodeFuzzRound(seed, nodes, knobs)
		want, skip := c.run(t, 0, false)
		if skip {
			return
		}
		if c.withoutRows {
			got, _ := c.run(t, c.shards, true)
			if !slices.Equal(got.fields, want.fields) {
				t.Fatalf("%+v: results WithoutRows at shards=%d differ from one region:\n%v\nvs\n%v", c, c.shards, got.fields, want.fields)
			}
			if !slices.Equal(got.packets, want.packets) {
				t.Fatalf("%+v: per-node packets WithoutRows at shards=%d differ from one region", c, c.shards)
			}
		}
		if c.shards == 0 {
			return
		}
		got, _ := c.run(t, c.shards, false)
		if len(got.tables) != len(want.tables) {
			t.Fatalf("%+v: %d results at shards=%d, %d in one region", c, len(got.tables), c.shards, len(want.tables))
		}
		for i := range want.tables {
			if d := tabledigest.Diff(want.tables[i], got.tables[i]); d != "" {
				t.Fatalf("%+v: result %d at shards=%d differs from one region: %s", c, i, c.shards, d)
			}
		}
		if !slices.Equal(got.packets, want.packets) {
			t.Fatalf("%+v: per-node packets at shards=%d differ from one region", c, c.shards)
		}
	})
}
