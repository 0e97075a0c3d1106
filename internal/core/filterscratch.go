package core

import (
	"cmp"
	"slices"
	"sort"
	"sync"

	"sensjoin/internal/query"
	"sensjoin/internal/zorder"
)

// filterScratch holds the reusable buffers of the base station's cell
// join (cellJoin), the pre-computation join run on the exact-join
// planner's cell domain. The hot loop visits O(candidates · conds) cell
// lookups; the scratch makes each one an index into buffers over a
// sorted, duplicate-free key universe instead of a deinterleave, a
// fresh bound slice or a map probe:
//
//   - uniq is the sorted unique key set; all other buffers are indexed
//     by position in uniq, so "marked" is a []bool and alias partitions
//     are []int32 index lists.
//   - bounds caches the per-dimension cell interval of every unique key,
//     computed once per call (O(m·d) deinterleaves) instead of once per
//     visited candidate per referenced attribute.
//   - probes[pos] is the window index of the plan position pos: its
//     level's keys sorted by cell in the dimension of the conjunct that
//     backs the window.
//
// Scratches are pooled; a scratch must not be shared between goroutines
// while in use.
type filterScratch struct {
	uniq     []zorder.Key
	aliasIdx [][]int32
	marked   []bool
	assign   []int32
	bounds   []query.Interval // len(uniq) × len(dims), row-major by key
	coords   []uint32
	lens     []int
	probes   []cellProbe
}

// cellProbe is one plan position's window index: the self level's keys
// sorted by (Lo, Hi) of their cell in dimension self. Zorder cell
// bounds are monotone in cell order — the edge cells reach ±Inf — so
// both Lo and Hi are non-decreasing along sorted and the keys whose
// cell meets a value window are one contiguous run.
type cellProbe struct {
	sorted      []int32
	self, other int // dimension indexes of the self and bound-side attribute
}

var filterPool = sync.Pool{New: func() any { return new(filterScratch) }}

func getFilterScratch() *filterScratch  { return filterPool.Get().(*filterScratch) }
func putFilterScratch(s *filterScratch) { filterPool.Put(s) }

// setUniq fills s.uniq with the sorted, duplicate-free form of keys and
// returns it. The result stays valid until the next setUniq call.
func (s *filterScratch) setUniq(keys []zorder.Key) []zorder.Key {
	s.uniq = append(s.uniq[:0], keys...)
	slices.Sort(s.uniq)
	s.uniq = slices.Compact(s.uniq)
	return s.uniq
}

// fillAliases partitions uniq into per-alias index lists by relation
// flag and records their sizes in s.lens. It reports false when some
// alias has no keys (nothing joins).
func (s *filterScratch) fillAliases(p *plan, uniq []zorder.Key, n int) bool {
	for len(s.aliasIdx) < n {
		s.aliasIdx = append(s.aliasIdx, nil)
	}
	s.lens = sized(s.lens, n)
	ok := true
	for i := 0; i < n; i++ {
		buf := s.aliasIdx[i][:0]
		flag := zorder.FlagFor(i, n)
		for idx, k := range uniq {
			if p.grid.Flags(k)&flag != 0 {
				buf = append(buf, int32(idx))
			}
		}
		s.aliasIdx[i] = buf
		s.lens[i] = len(buf)
		if len(buf) == 0 {
			ok = false
		}
	}
	return ok
}

// fillBounds precomputes the per-dimension cell interval of every key in
// uniq into s.bounds (row-major: bounds[i*nd+di] is key i, dimension di).
func (s *filterScratch) fillBounds(p *plan, uniq []zorder.Key) {
	nd := len(p.grid.Dims)
	s.bounds = sized(s.bounds, len(uniq)*nd)
	s.coords = sized(s.coords, nd)
	for i, k := range uniq {
		_, coords := p.grid.DeinterleaveInto(k, s.coords)
		for di, d := range p.grid.Dims {
			lo, hi := d.Bounds(coords[di])
			s.bounds[i*nd+di] = query.Interval{Lo: lo, Hi: hi}
		}
	}
}

// boundsEnv returns a tri-state evaluation environment resolving
// attribute references through the precomputed bounds of the keys
// currently assigned per alias in assign. The environment is built (and
// boxed) once per call, not once per visited candidate.
func (s *filterScratch) boundsEnv(p *plan, assign []int32) query.BoundsEnv {
	nd := len(p.grid.Dims)
	return query.CellEnv{Lookup: func(rel int, name string) query.Interval {
		di, ok := p.dimOf(name)
		if !ok {
			// A join condition referencing a non-join attribute cannot
			// happen (Analyze defines join attrs from join conditions),
			// but stay sound.
			return query.Everything()
		}
		return s.bounds[int(assign[rel])*nd+di]
	}}
}

// markedBuf returns a zeroed m-entry marking buffer.
func (s *filterScratch) markedBuf(m int) []bool {
	s.marked = sized(s.marked, m)
	clear(s.marked)
	return s.marked
}

// fillProbes builds the window index of every windowed plan position.
// Analyze makes every attribute of a join condition a join attribute,
// so both sides of a window are grid dimensions.
func (s *filterScratch) fillProbes(p *plan, order []levelPlan) []cellProbe {
	for len(s.probes) < len(order) {
		s.probes = append(s.probes, cellProbe{})
	}
	nd := len(p.grid.Dims)
	for pos, lp := range order {
		if lp.path == pathScan {
			continue
		}
		pr := &s.probes[pos]
		self, _ := p.dimOf(lp.self.Name)
		other, _ := p.dimOf(lp.other.Name)
		pr.self, pr.other = self, other
		pr.sorted = append(pr.sorted[:0], s.aliasIdx[lp.level]...)
		slices.SortFunc(pr.sorted, func(a, b int32) int {
			ca, cb := s.bounds[int(a)*nd+self], s.bounds[int(b)*nd+self]
			if c := cmp.Compare(ca.Lo, cb.Lo); c != 0 {
				return c
			}
			return cmp.Compare(ca.Hi, cb.Hi)
		})
	}
	return s.probes[:len(order)]
}

// window returns the keys of pr whose cell meets [lo, hi] in the self
// dimension: two binary searches, one per monotone bound.
func (s *filterScratch) window(pr *cellProbe, nd int, lo, hi float64) []int32 {
	keys := pr.sorted
	i := sort.Search(len(keys), func(i int) bool { return s.bounds[int(keys[i])*nd+pr.self].Hi >= lo })
	j := sort.Search(len(keys), func(j int) bool { return s.bounds[int(keys[j])*nd+pr.self].Lo > hi })
	if j < i {
		return nil
	}
	return keys[i:j]
}

// collectMarked materializes the marked subset of uniq. uniq is sorted
// and duplicate-free, so the result is already canonical; nil when
// nothing is marked, matching quadtree.NormalizeKeys of an empty set.
func collectMarked(uniq []zorder.Key, marked []bool) []zorder.Key {
	count := 0
	for _, m := range marked {
		if m {
			count++
		}
	}
	if count == 0 {
		return nil
	}
	out := make([]zorder.Key, 0, count)
	for i, k := range uniq {
		if marked[i] {
			out = append(out, k)
		}
	}
	return out
}
