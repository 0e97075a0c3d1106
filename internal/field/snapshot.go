package field

import (
	"sync"
	"sync/atomic"

	"sensjoin/internal/geom"
)

// snapshotRing is how many recent snapshots an environment remembers.
// The ring is what lets executions at a repeated (positions, t) share one
// sampling pass: the experiment suite runs every method of a table at one
// instant, and a server answers most one-shot queries at the default one.
// Nothing depends on a hit. A caller holds the snapshot it was given for
// as long as it needs it (core pins one per execution), so traffic that
// never repeats an instant — or keeps more than snapshotRing of them alive
// at once — samples each instant's columns once per caller, never more,
// and the ring only bounds what an idle environment retains: a few
// columns per slot.
const snapshotRing = 4

// Snapshot is every sensor's reading at one instant: one column of
// float64 per attribute, indexed like the position slice it was taken
// over (node ids, for a deployment's Pos). Column(name)[i] is exactly
// Environment.Read(name, pos[i], t), computed once on first request and
// then shared read-only by every caller — the paper's §IV-D semantics
// (each sensor sampled once per execution) made literal, and what lets
// a round read values by node id instead of carrying a map per node.
//
// A Snapshot belongs to the Environment that made it: it stays valid
// for as long as the environment is immutable (see Environment) and the
// positions are not written to, which holds for every Deployment after
// generation.
type Snapshot struct {
	env *Environment
	pos []geom.Point
	t   float64

	// cols is the published column set, replaced copy-on-write under mu;
	// readers only load it. There are a handful of attributes, so a
	// slice scan beats a map.
	cols atomic.Pointer[[]column]
	mu   sync.Mutex
}

type column struct {
	name string
	vals []float64
}

// Snapshot returns the snapshot of the environment over pos at time t.
// Calls with the same positions (the same backing array and length) and
// the same t share one Snapshot while it is among the environment's most
// recent ones; an evicted snapshot stays valid for whoever still holds
// it. pos must not be modified afterwards.
func (e *Environment) Snapshot(pos []geom.Point, t float64) *Snapshot {
	for i := range e.snaps {
		if s := e.snaps[i].Load(); s != nil && s.t == t && samePoints(s.pos, pos) {
			return s
		}
	}
	// Racing first requests may each publish one; both hold the same
	// values, and the ring simply forgets the duplicate in time.
	s := &Snapshot{env: e, pos: pos, t: t}
	e.snaps[(e.snapNext.Add(1)-1)%snapshotRing].Store(s)
	return s
}

// samePoints reports whether a and b are the same slice (not merely
// equal contents: identity is what makes the lookup O(1)).
func samePoints(a, b []geom.Point) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

// Column returns attribute name's readings, one per position. The slice
// is shared: callers must not modify it. Unknown attributes read as 0,
// like Environment.Read.
func (s *Snapshot) Column(name string) []float64 {
	if c := s.lookup(name); c != nil {
		return c
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.fill(name, 1)
}

// Fill computes the not yet filled columns among names with up to
// workers goroutines over disjoint position ranges; the values are
// those Column would compute. It exists for cold snapshots of very
// large deployments, where one column is a visible share of set-up.
func (s *Snapshot) Fill(workers int, names ...string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, name := range names {
		s.fill(name, workers)
	}
}

// memoKey identifies one memoised result: the positions it was derived
// over (by identity, like a snapshot's) and the caller's own key.
type memoKey struct {
	first *geom.Point
	n     int
	key   any
}

// Memo returns the value compute returned for key over pos on this
// environment, calling it on the first request. It is for results that
// are pure functions of the environment, the positions and the key (the
// workload calibration keeps its sorted samples and search results here):
// unlike a snapshot, which the ring may forget, a memoised result stays
// for the life of the environment, and unlike a package-level map keyed
// by pointers it is released with it. key must be comparable. Racing
// first requests may each run compute; one result is kept.
func (e *Environment) Memo(pos []geom.Point, key any, compute func() any) any {
	k := memoKey{n: len(pos), key: key}
	if len(pos) > 0 {
		k.first = &pos[0]
	}
	if v, ok := e.memo.Load(k); ok {
		return v
	}
	v, _ := e.memo.LoadOrStore(k, compute())
	return v
}

func (s *Snapshot) lookup(name string) []float64 {
	if cols := s.cols.Load(); cols != nil {
		for i := range *cols {
			if (*cols)[i].name == name {
				return (*cols)[i].vals
			}
		}
	}
	return nil
}

// fill returns column name, computing and publishing it if absent.
// s.mu must be held.
func (s *Snapshot) fill(name string, workers int) []float64 {
	if c := s.lookup(name); c != nil {
		return c
	}
	vals := make([]float64, len(s.pos))
	e := s.env
	switch name {
	case "x":
		for i, p := range s.pos {
			vals[i] = p.X
		}
	case "y":
		for i, p := range s.pos {
			vals[i] = p.Y
		}
	default:
		// The same steps, in the same order, as Environment.Read: the
		// field's reading (0 without a field), then the coupling term.
		if f, ok := e.fields[name]; ok {
			terms := f.termsAt(s.t)
			parallelRanges(len(vals), workers, func(lo, hi int) {
				for i := lo; i < hi; i++ {
					vals[i] = f.at(terms, s.pos[i], s.t)
				}
			})
		}
		if c, ok := e.couplings[name]; ok {
			other := s.fill(c.other, workers)
			for i := range vals {
				vals[i] += c.offset + c.gain*other[i]
			}
		}
	}
	var next []column
	if cols := s.cols.Load(); cols != nil {
		next = append(next, *cols...)
	}
	next = append(next, column{name: name, vals: vals})
	s.cols.Store(&next)
	return vals
}

// parallelRanges runs fn over [0, n) split into up to workers
// contiguous ranges, and waits for all of them.
func parallelRanges(n, workers int, fn func(lo, hi int)) {
	if workers <= 1 || n < 2*workers {
		fn(0, n)
		return
	}
	chunk := (n + workers - 1) / workers
	var wg sync.WaitGroup
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			fn(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}
