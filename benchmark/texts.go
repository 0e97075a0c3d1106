package main

import (
	"fmt"
	"math/rand"
	"sort"

	"sensjoin/internal/core"
)

// The query texts of the serving workloads. Literals come from the
// seeded generator and are placed relative to what the deployment's
// nodes actually read at t = 0 (spans and quantiles, never absolute
// values), so a text means the same on any deployment; each candidate
// is executed once on the oracle runner and kept only if its row count
// is in range.

// facts are the deployment's readings at t = 0, each attribute sorted
// ascending.
type facts struct {
	temp, hum, pres []float64
}

func deploymentFacts(r *core.Runner) facts {
	var f facts
	for i := 1; i < r.Dep.N(); i++ {
		f.temp = append(f.temp, r.Env.Read("temp", r.Dep.Pos[i], 0))
		f.hum = append(f.hum, r.Env.Read("hum", r.Dep.Pos[i], 0))
		f.pres = append(f.pres, r.Env.Read("pres", r.Dep.Pos[i], 0))
	}
	sort.Float64s(f.temp)
	sort.Float64s(f.hum)
	sort.Float64s(f.pres)
	return f
}

// span is the width of the temperature range: the scale of every δ.
func (f facts) span() float64 { return f.temp[len(f.temp)-1] - f.temp[0] }

const from = " FROM Sensors A, Sensors B WHERE "

// pointShapes are the eight shapes of serve_point: three aggregates,
// two equi-joins and three band joins, each a function of one or two
// uniform draws. The equi-joins match every node with itself, so their
// local predicate admits at most the 30 lowest (highest) readings; the
// band joins keep δ in the top 7% of the temperature span, where
// few pairs qualify.
var pointShapes = []func(f facts, u, v float64) string{
	func(f facts, u, _ float64) string {
		return fmt.Sprintf("SELECT COUNT(A.temp)"+from+"A.temp - B.temp > %.4f ONCE", f.span()*(0.2+0.7*u))
	},
	func(f facts, u, _ float64) string {
		return fmt.Sprintf("SELECT MIN(distance(A.x, A.y, B.x, B.y))"+from+"A.temp - B.temp > %.4f ONCE", f.span()*(0.2+0.7*u))
	},
	func(f facts, u, _ float64) string {
		return fmt.Sprintf("SELECT AVG(A.hum), MAX(B.pres)"+from+"A.temp - B.temp > %.4f ONCE", f.span()*(0.2+0.7*u))
	},
	func(f facts, u, _ float64) string {
		return fmt.Sprintf("SELECT A.temp, B.hum"+from+"A.temp = B.temp AND A.hum < %.4f ONCE", quantileOf(f.hum, 0.2*u))
	},
	func(f facts, u, _ float64) string {
		return fmt.Sprintf("SELECT A.temp"+from+"A.hum = B.hum AND A.temp > %.4f ONCE", quantileOf(f.temp, 1-0.2*u))
	},
	func(f facts, u, _ float64) string {
		return fmt.Sprintf("SELECT A.temp, B.temp"+from+"A.temp - B.temp > %.4f ONCE", f.span()*(0.93+0.07*u))
	},
	func(f facts, u, v float64) string {
		return fmt.Sprintf("SELECT A.hum, B.hum"+from+"abs(A.temp - B.temp) < %.4f AND distance(A.x, A.y, B.x, B.y) > %.1f ONCE",
			f.span()*0.002*(0.1+u), 100+400*v)
	},
	func(f facts, u, v float64) string {
		return fmt.Sprintf("SELECT *"+from+"A.temp - B.temp > %.4f AND A.pres < %.4f ONCE",
			f.span()*(0.93+0.07*u), quantileOf(f.pres, 0.3+0.7*v))
	},
}

// text is one distinct query text with what the oracle says it returns.
type text struct {
	src string
	ref tableDigest
	res *core.Result // the oracle's table, kept for the proto replay
}

// oracle executes src directly on the library runner: the reference
// every served table is compared with.
func oracle(r *core.Runner, src string) (text, error) {
	res, err := r.Run(src, core.NewSENSJoin(), 0)
	if err != nil {
		return text{}, fmt.Errorf("oracle: %s: %w", src, err)
	}
	return text{src: src, res: res, ref: tableDigest{
		cols: res.Columns, rows: len(res.Rows), complete: res.Complete,
		contributing: res.ContributingNodes, members: res.MemberNodes, hash: hashRows(res.Rows),
	}}, nil
}

// generate draws n distinct texts of one shape, each returning at most
// maxRows rows on the oracle runner. The shape's first parameter is
// stratified — literal j of n comes from [j/n, (j+1)/n) — so that every
// seed covers the parameter range evenly and what a cycle through the
// texts costs barely depends on the seed.
func generate(r *core.Runner, rng *rand.Rand, f facts, shape func(facts, float64, float64) string, n, maxRows int) ([]text, error) {
	seen := make(map[string]bool)
	out := make([]text, 0, n)
	for j := 0; j < n; j++ {
		for tries := 0; len(out) == j; tries++ {
			src := shape(f, (float64(j)+rng.Float64())/float64(n), rng.Float64())
			if tries == 100 {
				return nil, fmt.Errorf("texts: no candidate like %q returned at most %d rows", src, maxRows)
			}
			if seen[src] {
				continue
			}
			seen[src] = true
			q, err := oracle(r, src)
			if err != nil {
				return nil, err
			}
			if q.ref.rows <= maxRows {
				out = append(out, q)
			}
		}
	}
	return out, nil
}

// pointTexts builds serve_point's texts: total/8 literals for each of
// the eight shapes, interleaved so that neighbours in the cycle differ
// in shape.
func pointTexts(r *core.Runner, seed int64, total int) ([]text, error) {
	rng := rand.New(rand.NewSource(seed))
	f := deploymentFacts(r)
	per := total / len(pointShapes)
	byShape := make([][]text, len(pointShapes))
	for i, shape := range pointShapes {
		qs, err := generate(r, rng, f, shape, per, 32)
		if err != nil {
			return nil, err
		}
		byShape[i] = qs
	}
	out := make([]text, 0, total)
	for j := 0; j < per; j++ {
		for i := range byShape {
			out = append(out, byShape[i][j])
		}
	}
	return out, nil
}

// rowsShares are the result sizes of serve_rows's four texts, in
// percent of all node pairs: 4.4k, 6k, 7.5k and 9.1k rows on 150 nodes.
var rowsShares = []int{20, 27, 34, 41}

// rowsTexts builds serve_rows's four full-width band joins. Rows per
// operation decide what this workload costs (a first version that let
// each text return anything from 4k to 10k rows spread 24-46 ops/s over
// ten seeds), so every seed gets the same four sizes to within 0.3%: the
// row count falls monotonically with δ, bisection finds the δ interval
// that yields each size, and the seed picks δ inside it.
func rowsTexts(r *core.Runner, seed int64) ([]text, error) {
	rng := rand.New(rand.NewSource(seed))
	f := deploymentFacts(r)
	at := func(delta float64) (text, error) {
		return oracle(r, fmt.Sprintf("SELECT *"+from+"A.temp - B.temp > %.4f ONCE", delta))
	}
	// edge returns the smallest δ, to 1/65536 of the temperature span,
	// at which the join returns at most rows rows.
	edge := func(rows int) (float64, error) {
		lo, hi := 0.0, f.span()
		for i := 0; i < 16; i++ {
			mid := (lo + hi) / 2
			q, err := at(mid)
			if err != nil {
				return 0, err
			}
			if q.ref.rows > rows {
				lo = mid
			} else {
				hi = mid
			}
		}
		return hi, nil
	}
	pairs := (r.Dep.N() - 1) * (r.Dep.N() - 1)
	var out []text
	for _, share := range rowsShares {
		most, least := pairs*share/100*1003/1000, pairs*share/100*997/1000
		lo, err := edge(most)
		if err != nil {
			return nil, err
		}
		hi, err := edge(least - 1)
		if err != nil {
			return nil, err
		}
		q, err := at(lo + rng.Float64()*(hi-lo))
		if err != nil {
			return nil, err
		}
		// Rounding δ to four decimals may step over an edge of a
		// narrow interval; the tolerance is 0.3%, not a row.
		if q.ref.rows > most+pairs/1000 || q.ref.rows < least-pairs/1000 {
			return nil, fmt.Errorf("texts: %s returns %d rows, want %d..%d", q.src, q.ref.rows, least, most)
		}
		out = append(out, q)
	}
	return out, nil
}
