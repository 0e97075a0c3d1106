package core

import (
	"sort"
	"testing"

	"sensjoin/internal/zorder"
)

// The symmetric differences of buildFilterMsg run at every forwarding
// node every epoch of a continuous query; before the diffScratch arena
// they cost two slice allocations per node per epoch. After a warm-up
// round the arena must be allocation-free in steady state.
func TestDiffScratchAllocs(t *testing.T) {
	a := make([]zorder.Key, 256)
	b := make([]zorder.Key, 256)
	for i := range a {
		a[i] = zorder.Key(2 * i)
		b[i] = zorder.Key(3 * i)
	}

	var d diffScratch
	d.diff(a, b) // warm: grows the arena once
	d.diff(b, a)
	allocs := testing.AllocsPerRun(100, func() {
		d.reset()
		d.diff(a, b)
		d.diff(b, a)
	})
	if allocs != 0 {
		t.Errorf("diffScratch.diff steady state: %.0f allocs/run, want 0", allocs)
	}
}

// diffScratch results must match the plain diffKeys and stay intact
// when later diffs grow the arena.
func TestDiffScratchMatchesDiffKeys(t *testing.T) {
	a := []zorder.Key{1, 3, 5, 7, 9, 11}
	b := []zorder.Key{3, 4, 7, 8, 11}
	c := []zorder.Key{0, 1, 2, 5, 9, 10, 12, 14, 16, 18, 20, 22}

	var d diffScratch
	first := d.diff(a, b)
	second := d.diff(c, a) // grows past the first result
	want1, want2 := diffKeys(a, b), diffKeys(c, a)

	equal := func(x, y []zorder.Key) bool {
		if len(x) != len(y) {
			return false
		}
		for i := range x {
			if x[i] != y[i] {
				return false
			}
		}
		return true
	}
	if !equal(first, want1) {
		t.Errorf("first diff: got %v want %v", first, want1)
	}
	if !equal(second, want2) {
		t.Errorf("second diff: got %v want %v", second, want2)
	}
}

// buildFilterMsg in delta mode must stay within a small constant
// allocation budget: the adds/dels come out of the arena, so only the
// filterMsg headers and SetBytes sizing may allocate (constant count,
// independent of the key-set size). Before the arena the adds/dels
// slices added two O(keys)-sized allocations per call.
func TestBuildFilterMsgAllocs(t *testing.T) {
	src := "SELECT A.temp, B.temp FROM Sensors A, Sensors B WHERE A.temp - B.temp > 1.5 SAMPLE PERIOD 30"
	p, keys := filterFixture(t, src)
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	o := Options{}.withDefaults()

	s := NewContinuousSENSJoin()
	s.cont = s.cont.ensure(len(p.nodes))
	// Prime the sender state so the next call takes the delta path, and
	// drift a few keys so the delta is non-empty.
	s.buildFilterMsg(p, o, 0, keys, o.Rep.SetBytes(p, keys), false)
	drifted := append([]zorder.Key(nil), keys[:len(keys)-3]...)

	driftedBytes := o.Rep.SetBytes(p, drifted)

	allocs := testing.AllocsPerRun(100, func() {
		s.buildFilterMsg(p, o, 0, drifted, driftedBytes, false)
	})
	if allocs > 8 {
		t.Errorf("buildFilterMsg (delta): %.0f allocs/run, want <= 8", allocs)
	}
}
