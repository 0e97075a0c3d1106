package bench

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"sensjoin/internal/core"
)

// referenceTableKey is the rendering rowSetKey replaced, kept as its
// oracle: each row's cells concatenated with +=, the rows sorted as
// strings and appended to the header one += at a time.
func referenceTableKey(cols []string, rows [][]float64, contrib, members int, complete bool) string {
	rendered := make([]string, len(rows))
	for i, row := range rows {
		s := ""
		for _, v := range row {
			s += fmt.Sprintf("%x|", v)
		}
		rendered[i] = s
	}
	sort.Strings(rendered)
	key := fmt.Sprintf("cols=%v contrib=%d members=%d complete=%t;", cols, contrib, members, complete)
	for _, s := range rendered {
		key += s + "\n"
	}
	return key
}

// rowSetKey renders every table byte for byte as the reference does, for
// a library result and for a client's rows: empty, one row, 10k rows with
// duplicates, and the cells whose formatting is special (NaN, ±0, ±Inf,
// subnormals, extremes).
func TestRowSetKeyMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	big := make([][]float64, 10000)
	for i := range big {
		big[i] = []float64{math.Round(rng.Float64()*400) / 10, rng.NormFloat64() * 1e3, float64(rng.Intn(50))}
	}
	copy(big[5000:5100], big[:100]) // duplicate rows keep their multiplicity
	special := [][]float64{
		{math.NaN(), 0}, {math.Copysign(0, -1), math.Inf(1)}, {math.Inf(-1), -1.5},
		{math.SmallestNonzeroFloat64, math.MaxFloat64}, {0, math.NaN()}, {-0.1, 0.1},
	}
	for i, c := range []struct {
		name string
		cols []string
		rows [][]float64
	}{
		{"empty", []string{"A.temp"}, nil},
		{"one row", []string{"A.temp", "B.temp"}, [][]float64{{21.5, 14}}},
		{"10k rows", []string{"A.temp", "B.hum", "COUNT(B.x)"}, big},
		{"special cells", []string{"a", "b"}, special},
		{"no columns", nil, [][]float64{{}, {}}},
	} {
		complete := i%2 == 0
		want := referenceTableKey(c.cols, c.rows, 7, 150, complete)
		if got := rowSetKey(c.cols, c.rows, 7, 150, complete); got != want {
			t.Errorf("%s, client rows: key differs from the reference (%d vs %d bytes)", c.name, len(got), len(want))
		}
		res := &core.Result{Columns: c.cols, ContributingNodes: 7, MemberNodes: 150, Complete: complete}
		for _, row := range c.rows {
			res.Rows = append(res.Rows, core.Row(row))
		}
		if got := tableKey(res); got != want {
			t.Errorf("%s, library result: key differs from the reference (%d vs %d bytes)", c.name, len(got), len(want))
		}
	}
}
