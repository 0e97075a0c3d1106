//go:build !race

package core

import "testing"

// Allocation pins on paths that pool their scratch: the race detector
// drops sync.Pool items on purpose, so these hold only without it.

// A run option is data: passing WithoutRows costs no allocation, so on a
// round with no rows to build the option allocates no more than its
// absence (gathering options through calls moved them to the heap).
func TestWithoutRowsOptionAllocatesNothing(t *testing.T) {
	r, err := NewRunner(SetupConfig{Nodes: 150, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	p, err := r.Prepare("SELECT A.temp, B.temp FROM Sensors A, Sensors B WHERE A.temp - B.temp > 500 ONCE")
	if err != nil {
		t.Fatal(err)
	}
	allocs := func(opts ...RunOption) float64 {
		run := func() {
			r.Stats.Reset()
			if res, err := r.RunPrepared(p, NewSENSJoin(), 0, opts...); err != nil || len(res.Rows) != 0 {
				t.Fatalf("%d rows, %v; want an empty round", len(res.Rows), err)
			}
		}
		run() // warm
		return testing.AllocsPerRun(20, run)
	}
	if with, without := allocs(WithoutRows()), allocs(); with > without {
		t.Fatalf("RunPrepared allocates %.1f times with WithoutRows, %.1f without", with, without)
	}
}
