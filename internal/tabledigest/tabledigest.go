// Package tabledigest compares join result tables the way the paper's
// claim needs them compared: two tables are the same when they have the
// same columns, the same rows bit for bit in any order (a multiset: a
// duplicate row counts), and the same contributing count, member count
// and completeness. Digest decides that without allocating, up to a hash
// collision; Diff's exact sort-and-compare runs only behind a digest
// mismatch, to name what differs.
package tabledigest

import (
	"cmp"
	"fmt"
	"math"
	"slices"
)

// Table is one result table, the library's (core.Row rows) or a
// client's ([]float64 rows).
type Table[R ~[]float64] struct {
	Columns      []string
	Rows         []R
	Contributing int
	Members      int
	Complete     bool
}

// Digest is what two tables are compared by, with ==. Equal tables have
// equal digests; tables that differ in a column name or its place, in
// any bit of any cell, in a row's multiplicity, in either count or in
// completeness have different digests but for a hash collision (64 bits
// for the columns, 128 for the rows).
type Digest struct {
	columns               uint64
	rows                  int
	sum, xor              uint64 // the row hashes, combined independently of order
	contributing, members int
	complete              bool
}

// mix is the splitmix64 finalizer: every input bit reaches every output
// bit, so rows that differ in one bit spread over the whole sum and xor.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// Digest hashes t without allocating. Each row is hashed on its own, cell
// by cell over the IEEE-754 bits, and the row hashes are combined by a
// wrapping sum and an xor, neither of which depends on row order.
func (t Table[R]) Digest() Digest {
	d := Digest{columns: mix(uint64(len(t.Columns))), rows: len(t.Rows),
		contributing: t.Contributing, members: t.Members, complete: t.Complete}
	for _, c := range t.Columns {
		f := uint64(14695981039346656037) // FNV-1a over the name's bytes
		for i := 0; i < len(c); i++ {
			f = (f ^ uint64(c[i])) * 1099511628211
		}
		d.columns = mix(d.columns ^ mix(f^uint64(len(c))))
	}
	for _, row := range t.Rows {
		h := mix(uint64(len(row)))
		for _, v := range row {
			h = mix(h ^ math.Float64bits(v))
		}
		d.sum += h
		d.xor ^= h
	}
	return d
}

// Diff returns "" when a and b are the same table, and otherwise what
// differs, a's side first: the columns, counts and completeness, or the
// first row at which the two row lists, each sorted by its cells' bits,
// part. Equality is decided by the digests: equal ones answer "" at once.
// Behind a mismatch the comparison sorts copies of both row lists and is
// exact.
func Diff[A, B ~[]float64](a Table[A], b Table[B]) string {
	if a.Digest() == b.Digest() {
		return ""
	}
	const head = "columns %q, contributing %d, members %d, complete %t"
	ha := fmt.Sprintf(head, a.Columns, a.Contributing, a.Members, a.Complete)
	if hb := fmt.Sprintf(head, b.Columns, b.Contributing, b.Members, b.Complete); ha != hb {
		return ha + " vs " + hb
	}
	x, y := sortedRows(a.Rows), sortedRows(b.Rows)
	for i := range max(len(x), len(y)) {
		if i == len(x) || i == len(y) || compareBits(x[i], y[i]) != 0 {
			return fmt.Sprintf("sorted row %d is %s vs %s (%d rows vs %d)", i, rowAt(x, i), rowAt(y, i), len(x), len(y))
		}
	}
	return ""
}

// sortedRows returns rows ordered by compareBits, as plain slices so that
// both sides of a Diff sort and compare alike.
func sortedRows[R ~[]float64](rows []R) [][]float64 {
	out := make([][]float64, len(rows))
	for i, r := range rows {
		out[i] = r
	}
	slices.SortFunc(out, compareBits)
	return out
}

// compareBits orders rows by their cells' IEEE-754 bits, then by length:
// a total order in which only bit-identical rows are equal.
func compareBits(x, y []float64) int {
	for i := range min(len(x), len(y)) {
		if c := cmp.Compare(math.Float64bits(x[i]), math.Float64bits(y[i])); c != 0 {
			return c
		}
	}
	return cmp.Compare(len(x), len(y))
}

// rowAt prints rows[i] exactly, "none" past the end: each cell as the
// shortest decimal that reads back to it, a NaN by its bits.
func rowAt(rows [][]float64, i int) string {
	if i == len(rows) {
		return "none"
	}
	cells := make([]any, len(rows[i]))
	for k, v := range rows[i] {
		if cells[k] = v; math.IsNaN(v) {
			cells[k] = fmt.Sprintf("NaN(%#x)", math.Float64bits(v))
		}
	}
	return fmt.Sprint(cells)
}
