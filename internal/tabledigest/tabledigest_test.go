package tabledigest

import (
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// row stands for core.Row.
type row []float64

// inputs are the tables the tests run on: empty, one row, 10k rows with
// duplicates, the cells with special bits (NaN, ±0, ±Inf, a subnormal,
// the largest finite value) and rows without columns. A fresh copy each
// call, so a test may change it.
func inputs() []Table[row] {
	rng := rand.New(rand.NewSource(1))
	big := make([]row, 10000)
	for i := range big {
		big[i] = row{math.Round(rng.Float64()*400) / 10, rng.NormFloat64() * 1e3, float64(rng.Intn(50))}
	}
	copy(big[5000:5100], big[:100]) // duplicate rows keep their multiplicity
	special := []row{
		{math.NaN(), 0}, {math.Copysign(0, -1), math.Inf(1)}, {math.Inf(-1), -1.5},
		{math.SmallestNonzeroFloat64, math.MaxFloat64}, {0, math.NaN()}, {-0.1, 0.1},
	}
	return []Table[row]{
		{Columns: []string{"A.temp"}, Members: 150, Complete: true},
		{Columns: []string{"A.temp", "B.temp"}, Rows: []row{{21.5, 14}}, Contributing: 2, Members: 150},
		{Columns: []string{"A.temp", "B.hum", "COUNT(B.x)"}, Rows: big, Contributing: 7, Members: 150, Complete: true},
		{Columns: []string{"a", "b"}, Rows: special, Contributing: 7, Members: 150},
		{Rows: []row{{}, {}}, Contributing: 7, Members: 150, Complete: true},
	}
}

// A table equals itself in any row order.
func TestDigestIgnoresRowOrder(t *testing.T) {
	want, got := inputs(), inputs()
	for i := range got {
		rows := got[i].Rows
		rand.New(rand.NewSource(2)).Shuffle(len(rows), func(a, b int) { rows[a], rows[b] = rows[b], rows[a] })
		if want[i].Digest() != got[i].Digest() {
			t.Errorf("%v: a permutation of %d rows changed the digest", want[i].Columns, len(rows))
		}
	}
}

// Every change a table comparison must see changes the digest, and Diff
// names it.
func TestDigestSeesEveryChange(t *testing.T) {
	for _, c := range []struct {
		name  string
		input int // of inputs()
		do    func(*Table[row])
		want  string // in Diff's answer
	}{
		{"one bit", 2, func(t *Table[row]) { t.Rows[7][1] = math.Float64frombits(math.Float64bits(t.Rows[7][1]) ^ 1) }, "sorted row"},
		{"+0 for -0", 3, func(t *Table[row]) { t.Rows[1][0] = 0 }, "sorted row"},
		{"two cells swapped", 1, func(t *Table[row]) { t.Rows[0][0], t.Rows[0][1] = t.Rows[0][1], t.Rows[0][0] }, "sorted row"},
		{"a duplicate dropped", 2, func(t *Table[row]) { t.Rows = slices.Delete(t.Rows, 5000, 5001) }, "(10000 rows vs 9999)"},
		{"an empty duplicate dropped", 4, func(t *Table[row]) { t.Rows = t.Rows[1:] }, "(2 rows vs 1)"},
		{"a column renamed", 1, func(t *Table[row]) { t.Columns[1] = "B.hum" }, `vs columns ["A.temp" "B.hum"]`},
		{"columns reordered", 2, func(t *Table[row]) { slices.Reverse(t.Columns) }, `vs columns ["COUNT(B.x)" "B.hum" "A.temp"]`},
		{"contributing", 0, func(t *Table[row]) { t.Contributing++ }, "contributing 1, "},
		{"members", 3, func(t *Table[row]) { t.Members-- }, "members 149"},
		{"complete", 4, func(t *Table[row]) { t.Complete = !t.Complete }, "complete true vs columns [], contributing 7, members 150, complete false"},
	} {
		want, got := inputs()[c.input], inputs()[c.input]
		c.do(&got)
		if want.Digest() == got.Digest() {
			t.Errorf("%s leaves the digest as it was", c.name)
		}
		if d := Diff(want, got); !strings.Contains(d, c.want) {
			t.Errorf("%s: Diff says %q, want it to mention %q", c.name, d, c.want)
		}
	}
}

// Diff names the first row that differs, exactly: -0 apart from +0, a
// NaN by its bits.
func TestDiffNamesTheRow(t *testing.T) {
	a := Table[row]{Columns: []string{"x", "y"}, Rows: []row{{5, 6}, {3, math.Copysign(0, -1)}, {1, 2}}}
	b := Table[row]{Columns: []string{"x", "y"}, Rows: []row{{1, 2}, {3, 0}, {5, 6}, {5, math.Float64frombits(0x7ff8_dead_0000_beef)}}}
	for _, c := range []struct{ got, want string }{
		{Diff(a, b), "sorted row 1 is [3 -0] vs [3 0] (3 rows vs 4)"},
		{Diff(b, a), "sorted row 1 is [3 0] vs [3 -0] (4 rows vs 3)"},
		{Diff(Table[row]{Rows: b.Rows[:3]}, Table[row]{Rows: b.Rows}), "sorted row 3 is none vs [5 NaN(0x7ff8dead0000beef)] (3 rows vs 4)"},
	} {
		if c.got != c.want {
			t.Errorf("Diff = %q, want %q", c.got, c.want)
		}
	}
}

// Digesting the 10k-row table allocates nothing.
func TestDigestAllocatesNothing(t *testing.T) {
	big := inputs()[2]
	if n := testing.AllocsPerRun(10, func() { _ = big.Digest() }); n != 0 {
		t.Errorf("digesting %d rows allocated %v times, want 0", len(big.Rows), n)
	}
}
