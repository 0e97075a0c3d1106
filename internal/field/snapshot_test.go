package field

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"sensjoin/internal/geom"
)

func snapshotPositions(n int) []geom.Point {
	rng := rand.New(rand.NewSource(21))
	pos := make([]geom.Point, n)
	for i := range pos {
		pos[i] = testArea().Lerp(rng.Float64(), rng.Float64())
	}
	pos[0] = testArea().Corner()
	return pos
}

// snapshotAttrs is every attribute an environment serves, plus one it
// does not (reads 0, like Environment.Read).
var snapshotAttrs = []string{"temp", "hum", "pres", "light", "x", "y", "nosuch"}

var snapshotTimes = []float64{0, 30, 1800.5, 86400}

func checkColumns(t *testing.T, e *Environment, s *Snapshot, pos []geom.Point, at float64) {
	t.Helper()
	for _, name := range snapshotAttrs {
		col := s.Column(name)
		if len(col) != len(pos) {
			t.Fatalf("%s: column has %d entries for %d positions", name, len(col), len(pos))
		}
		for i, p := range pos {
			if want := e.Read(name, p, at); math.Float64bits(col[i]) != math.Float64bits(want) {
				t.Fatalf("%s at t=%g, position %d: column %v (%#x), Read %v (%#x)",
					name, at, i, col[i], math.Float64bits(col[i]), want, math.Float64bits(want))
			}
		}
	}
}

// A column holds Environment.Read's bits exactly — couplings, location
// attributes and unknown names included — for both stock environments.
func TestSnapshotColumnsBitEqualRead(t *testing.T) {
	pos := snapshotPositions(300)
	envs := map[string]*Environment{
		"standard": StandardEnvironment(testArea(), 1042),
		"quiet":    QuietEnvironment(testArea(), 1042),
	}
	for name, e := range envs {
		for _, at := range snapshotTimes {
			t.Run(name, func(t *testing.T) { checkColumns(t, e, e.Snapshot(pos, at), pos, at) })
		}
	}
}

// Filling with workers, or requesting a coupled attribute before the one
// it depends on, changes nothing.
func TestSnapshotFillOrderAndWorkers(t *testing.T) {
	pos := snapshotPositions(5000)
	e := StandardEnvironment(testArea(), 7)
	seq := e.Snapshot(pos, 60)
	par := StandardEnvironment(testArea(), 7).Snapshot(pos, 60)
	par.Fill(4, "pres", "hum", "temp", "x")
	for _, name := range []string{"hum", "pres", "temp", "x"} {
		a, b := seq.Column(name), par.Column(name)
		for i := range a {
			if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
				t.Fatalf("%s[%d]: sequential %v, 4 workers %v", name, i, a[i], b[i])
			}
		}
	}
}

// Same positions and instant share one snapshot and one column; another
// instant or another position slice does not; the ring forgets the
// oldest without invalidating it.
func TestSnapshotSharingAndRing(t *testing.T) {
	pos := snapshotPositions(50)
	e := StandardEnvironment(testArea(), 3)
	s0 := e.Snapshot(pos, 0)
	if e.Snapshot(pos, 0) != s0 {
		t.Fatal("same positions and time must share a snapshot")
	}
	if &s0.Column("temp")[0] != &e.Snapshot(pos, 0).Column("temp")[0] {
		t.Fatal("a column must be filled once and shared")
	}
	other := append([]geom.Point(nil), pos...)
	if e.Snapshot(other, 0) == s0 {
		t.Fatal("a different position slice must not share a snapshot")
	}
	if e.Snapshot(pos, 30) == s0 {
		t.Fatal("a different time must not share a snapshot")
	}
	held := s0.Column("hum")
	for i := 0; i < 2*snapshotRing; i++ {
		e.Snapshot(pos, float64(100+i))
	}
	if e.Snapshot(pos, 0) == s0 {
		t.Fatalf("the ring holds %d snapshots; the oldest must have been replaced", snapshotRing)
	}
	checkColumns(t, e, s0, pos, 0) // evicted, still valid for its holders
	if &held[0] != &s0.Column("hum")[0] {
		t.Fatal("an evicted snapshot must keep its columns")
	}
}

// Concurrent first requests — of the snapshot and of its columns — under
// the race detector: every goroutine sees Read's bits.
func TestSnapshotConcurrentFirstFill(t *testing.T) {
	pos := snapshotPositions(400)
	e := StandardEnvironment(testArea(), 11)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			at := snapshotTimes[g%2]
			s := e.Snapshot(pos, at)
			for k := range snapshotAttrs {
				name := snapshotAttrs[(k+g)%len(snapshotAttrs)]
				col := s.Column(name)
				for i := 0; i < len(pos); i += 37 {
					if want := e.Read(name, pos[i], at); math.Float64bits(col[i]) != math.Float64bits(want) {
						t.Errorf("goroutine %d: %s[%d] = %v, Read = %v", g, name, i, col[i], want)
						return
					}
				}
			}
			// Racing first Memo requests keep one value per key.
			if v := e.Memo(pos, "k", func() any { return g }); v != e.Memo(pos, "k", func() any { return -1 }) {
				t.Errorf("goroutine %d: Memo changed its answer", g)
			}
		}(g)
	}
	wg.Wait()
}

// Memo computes once per (positions, key), keeps keys and position
// slices apart, and — unlike the snapshot ring — never forgets.
func TestEnvironmentMemo(t *testing.T) {
	e := StandardEnvironment(testArea(), 1)
	pos, other := snapshotPositions(10), snapshotPositions(10)
	calls := 0
	get := func(pos []geom.Point, key any) any {
		return e.Memo(pos, key, func() any { calls++; return calls })
	}
	if get(pos, "a") != 1 || get(pos, "a") != 1 || get(pos, "b") != 2 || get(pos, "a") != 1 {
		t.Fatal("Memo must compute once per key")
	}
	type k struct{ n int }
	if get(pos, k{1}) != 3 || get(pos, k{2}) != 4 || get(pos, k{1}) != 3 {
		t.Fatal("Memo must key on the whole value")
	}
	if get(other, "a") != 5 || get(pos[:5], "a") != 6 || get(pos, "a") != 1 {
		t.Fatal("Memo must key on the position slice's identity and length")
	}
	// More instants than the ring holds evict every snapshot; the memo
	// is not in the ring.
	for i := 0; i <= 2*snapshotRing; i++ {
		e.Snapshot(pos, float64(i)).Column("temp")
	}
	if get(pos, "a") != 1 || get(pos, k{2}) != 4 {
		t.Fatal("snapshot traffic must not evict memoised results")
	}
}
