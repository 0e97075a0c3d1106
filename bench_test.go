// Benchmarks regenerating every table and figure of the paper's
// evaluation (§VI): BenchmarkSuite runs one sub-benchmark per experiment
// of bench.Suite that bench.All runs, named by its id. Run with:
//
//	go test -bench=. -benchmem
//	go test -bench=Suite/E1a     # one experiment
//
// Each iteration executes the complete experiment (topology, snapshot,
// protocol simulation, base-station join) at a reduced scale so the
// default benchtime stays reasonable; cmd/experiments runs the paper's
// full 1500-node setting. Besides ns/op, a sub-benchmark reports the
// headline quantity of its figure (packets, savings, reduction factors)
// via b.ReportMetric, so the benchmark output doubles as a compact
// reproduction table.
package sensjoin_test

import (
	"strconv"
	"strings"
	"testing"

	"sensjoin/internal/bench"
)

// benchConfig is the reduced-scale default for benchmarks.
func benchConfig() bench.Config {
	return bench.Config{
		Nodes:     300,
		Seed:      42,
		Fractions: []float64{0.01, 0.05, 0.25, 0.60, 0.80},
	}
}

// lastFloat extracts the first float in a cell like "66.4%" or "3.4x".
func lastFloat(cell string) float64 {
	cell = strings.TrimRight(cell, "%x")
	v, err := strconv.ParseFloat(cell, 64)
	if err != nil {
		return 0
	}
	return v
}

// metric reports the number in one cell of tbl; a negative row counts
// from the end.
func metric(b *testing.B, tbl *bench.Table, row, col int, unit string) {
	if row < 0 {
		row += len(tbl.Rows)
	}
	b.ReportMetric(lastFloat(tbl.Rows[row][col]), unit)
}

func reportSavings(b *testing.B, tbl *bench.Table) {
	for _, row := range tbl.Rows {
		if lastFloat(row[1]) == 5.0 || len(tbl.Rows) == 1 {
			b.ReportMetric(lastFloat(row[4]), "savings@5%")
		}
	}
}

// The last bin holds the most loaded (near-root) nodes.
func reportRootLoad(b *testing.B, tbl *bench.Table) {
	metric(b, tbl, -1, 4, "rootload-reduction-x")
}

// headline maps an experiment id to the figure quantities its
// sub-benchmark reports; an id without an entry reports ns/op only.
var headline = map[string]func(*testing.B, *bench.Table){
	"E1a": reportSavings,
	"E1b": reportSavings,
	"E2a": reportRootLoad,
	"E2b": reportRootLoad,
	// Savings at the lowest ratio (last row) and the highest (100%).
	"E3": func(b *testing.B, tbl *bench.Table) {
		metric(b, tbl, -1, 3, "savings@60%-ratio")
		metric(b, tbl, 0, 3, "savings@100%-ratio")
	},
	"E4": func(b *testing.B, tbl *bench.Table) {
		metric(b, tbl, -1, 3, "savings@20%-ratio")
		metric(b, tbl, 0, 3, "savings@100%-ratio")
	},
	"E5": func(b *testing.B, tbl *bench.Table) {
		metric(b, tbl, 0, 3, "savings@small")
		metric(b, tbl, -1, 3, "savings@large")
	},
	// Row 1 is the 124-byte setting; column 6 is the max-node reduction.
	"E6": func(b *testing.B, tbl *bench.Table) { metric(b, tbl, 1, 6, "rootload-reduction-x@124B") },
	// Fixed collection cost (row 1, column 1 — first sens run).
	"E7": func(b *testing.B, tbl *bench.Table) { metric(b, tbl, 1, 1, "ja-collect-packets") },
	// Each compressor's packets relative to raw ("vs raw" column).
	"E8": func(b *testing.B, tbl *bench.Table) {
		metric(b, tbl, 3, 2, "quadtree-vs-raw-%")
		metric(b, tbl, 2, 2, "zlib-vs-raw-%")
		metric(b, tbl, 1, 2, "bwz-vs-raw-%")
	},
	"E9": func(b *testing.B, tbl *bench.Table) {
		metric(b, tbl, 1, 2, "noquad-total-packets")
		metric(b, tbl, 2, 2, "sens-total-packets")
	},
	// Steady-state saving of the last round.
	"X1": func(b *testing.B, tbl *bench.Table) { metric(b, tbl, -1, 3, "filter-bytes-saved-%") },
	"X3": func(b *testing.B, tbl *bench.Table) { metric(b, tbl, 1, 4, "lifetime-extension-x@33%") },
}

// BenchmarkSuite runs every experiment bench.All runs, one
// sub-benchmark per id, at benchConfig.
func BenchmarkSuite(b *testing.B) {
	for _, e := range bench.Suite {
		if e.OnDemand {
			continue
		}
		b.Run(e.ID, func(b *testing.B) {
			var tbl *bench.Table
			for i := 0; i < b.N; i++ {
				var err error
				if tbl, _, err = e.Run(benchConfig(), bench.Params{}); err != nil {
					b.Fatal(err)
				}
			}
			if report := headline[e.ID]; report != nil {
				report(b, tbl)
			}
		})
	}
}
