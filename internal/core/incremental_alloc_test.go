package core

import (
	"slices"
	"sort"
	"testing"

	"sensjoin/internal/zorder"
)

// filterMsgFixture is a continuous method primed at node 0 with a sorted
// key set and a drifted copy of it, so that every further broadcast that
// alternates between the two takes the delta path with a non-empty delta.
func filterMsgFixture(t *testing.T) (s *SENSJoin, p *plan, o Options, keys, drifted []zorder.Key) {
	t.Helper()
	src := "SELECT A.temp, B.temp FROM Sensors A, Sensors B WHERE A.temp - B.temp > 1.5 SAMPLE PERIOD 30"
	p, keys = filterFixture(t, src)
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	keys = slices.Compact(keys)
	o = Options{}.withDefaults()
	s = NewContinuousSENSJoin()
	s.cont = s.cont.ensure(len(p.nodes))
	var a roundArena
	s.buildFilterMsg(&a, p, o, 0, keys, o.Rep.SetBytes(p, keys), false)
	drifted = append([]zorder.Key(nil), keys[:len(keys)-3]...)
	return s, p, o, keys, drifted
}

// The symmetric differences of a delta run at every forwarding node every
// epoch of a continuous query. They are built in the round arena's free
// key storage and claimed from it; once the arena has been sized by a
// round, they cost no allocation, and each stays intact behind the next.
func TestRoundArenaDiffAllocs(t *testing.T) {
	x := make([]zorder.Key, 256)
	y := make([]zorder.Key, 256)
	for i := range x {
		x[i] = zorder.Key(2 * i)
		y[i] = zorder.Key(3 * i)
	}
	var a roundArena
	var adds, dels []zorder.Key
	carve := func() {
		adds = a.keys.keep(diffKeysInto(a.keys.rest(), x, y))
		dels = a.keys.keep(diffKeysInto(a.keys.rest(), y, x))
	}
	round := func() {
		a.open()
		carve()
		a.close(false)
	}
	round() // sizes the arena
	if allocs := testing.AllocsPerRun(100, round); allocs != 0 {
		t.Errorf("arena-carved differences on a warm arena: %.0f allocs/round, want 0", allocs)
	}
	a.open()
	carve()
	if !slices.Equal(adds, diffKeys(x, y)) || !slices.Equal(dels, diffKeys(y, x)) {
		t.Errorf("arena-carved differences: adds %v dels %v, want %v and %v",
			adds, dels, diffKeys(x, y), diffKeys(y, x))
	}
	if a.keys.used != len(adds)+len(dels) {
		t.Errorf("arena used %d keys, want the %d carved", a.keys.used, len(adds)+len(dels))
	}
	a.close(false)
}

// A forwarding node of a continuous query builds a filter message every
// epoch: the message and its delta's adds and dels. On a warm round arena
// that costs nothing: they are carved, and the arena keeps the size the
// last round needed.
func TestBuildFilterMsgAllocs(t *testing.T) {
	s, p, o, keys, drifted := filterMsgFixture(t)
	keysBytes, driftedBytes := o.Rep.SetBytes(p, keys), o.Rep.SetBytes(p, drifted)
	var a roundArena
	epoch := func() {
		a.open()
		for _, m := range []*filterMsg{
			s.buildFilterMsg(&a, p, o, 0, drifted, driftedBytes, false),
			s.buildFilterMsg(&a, p, o, 0, keys, keysBytes, false),
		} {
			if m.mode != fmDelta {
				t.Fatalf("fixture drifted: mode %d, want a delta", m.mode)
			}
		}
		a.close(false)
	}
	epoch() // sizes the arena
	if allocs := testing.AllocsPerRun(100, epoch); allocs != 0 {
		t.Errorf("buildFilterMsg (delta) on a warm arena: %.0f allocs/epoch, want 0", allocs)
	}
}

// A delta's adds and dels are the plain set differences, and the ones
// carved first stay intact while later messages are carved behind them,
// whether they fit the arena or spill to the heap.
func TestBuildFilterMsgDeltaMatchesDiffKeys(t *testing.T) {
	s, p, o, keys, drifted := filterMsgFixture(t)
	var a roundArena
	for round := 0; round < 2; round++ { // the first round spills, the second carves
		a.open()
		prev := keys
		type sent struct{ msg, want *filterMsg }
		var got []sent
		for _, sub := range [][]zorder.Key{drifted, keys, drifted, keys} {
			m := s.buildFilterMsg(&a, p, o, 0, sub, o.Rep.SetBytes(p, sub), false)
			if m.mode != fmDelta {
				t.Fatalf("round %d: mode %d, want a delta", round, m.mode)
			}
			got = append(got, sent{m, &filterMsg{keys: diffKeys(sub, prev), dels: diffKeys(prev, sub)}})
			prev = sub
		}
		for i, g := range got {
			if !slices.Equal(g.msg.keys, g.want.keys) || !slices.Equal(g.msg.dels, g.want.dels) {
				t.Errorf("round %d message %d: adds %v dels %v, want %v and %v",
					round, i, g.msg.keys, g.msg.dels, g.want.keys, g.want.dels)
			}
		}
		a.close(false)
	}
	if a.keys.buf == nil {
		t.Fatal("the arena kept no storage for the next round")
	}
}

// An arena sized by the largest demand of its window does not reallocate
// while rounds alternate between a small and a large demand more than
// four times apart — the last round's demand alone would remake it every
// other round — and once the large rounds stop it shrinks within two
// spans, to at most four times what the window still asks for.
func TestArenaKeepsTheWindowPeak(t *testing.T) {
	var b bump[zorder.Key]
	round := func(n int) {
		b.open()
		b.take(n)
		b.close(false)
	}
	for i := 0; i < 4*arenaSpan; i++ {
		round(10 + 990*(i%2))
	}
	warm := &b.buf[0]
	for i := 0; i < 8*arenaSpan; i++ {
		round(10 + 990*(i%3/2))
		if &b.buf[0] != warm {
			t.Fatalf("round %d of alternating demands reallocated the arena", i)
		}
	}
	for i := 0; i < 2*arenaSpan+1; i++ {
		round(10)
	}
	b.open()
	if len(b.buf) > 4*10 {
		t.Errorf("after %d rounds of demand 10 the arena holds %d, want at most 40", 2*arenaSpan+1, len(b.buf))
	}
	b.close(false)
}
