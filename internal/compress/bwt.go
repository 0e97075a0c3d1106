package compress

import (
	"cmp"
	"slices"
)

// bwtScratch is the working set of the rotation sort, kept between
// blocks in a pooled bwzScratch: every forwarding node of a BWZ-backed
// round transforms one small block.
type bwtScratch struct {
	// sa lists the rotations in sorted order; cls[i] is the class of
	// rotation i (equal classes: equal compared prefixes), next the
	// classes being built and tmp the rotations ordered by their second
	// half. cnt holds a counting sort's buckets.
	sa, tmp, cls, next, cnt []int32
	// keys[i] packs rotation i's key of one comparison round,
	// (rank[i], rank[(i+k)%n]), into one word (see sortTied); it is
	// sized only when a block is periodic.
	keys []uint64
}

// grow returns s with length n, reallocating at twice the old capacity
// (at least n) when it is too small. The contents are not kept.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		s = make([]T, n, max(n, 2*cap(s)))
	}
	return s[:n]
}

// transform writes the Burrows-Wheeler Transform of data into last
// (len(last) == len(data)): the last column of the sorted matrix of all
// rotations. It returns the primary index, the row of data itself.
//
// On an aperiodic block every rotation is distinct, so the sorted order
// is unique and sortRotations finds it. A periodic block (a key set
// repeated round-robin) has equal rotations, whose order picks the
// primary index, which is part of the compressed size; sortTied then
// orders them as the reference transform does (bwt_ref_test.go).
func (s *bwtScratch) transform(data, last []byte) (primary int) {
	n := len(data)
	if n == 0 {
		return 0
	}
	if !s.sortRotations(data) {
		s.sortTied(data)
	}
	for i, rot := range s.sa {
		// Rotation starting at rot: its last character is data[rot-1].
		j := int(rot) - 1
		if j < 0 {
			j = n - 1
			primary = i
		}
		last[i] = data[j]
	}
	return primary
}

// sortRotations orders data's rotations into s.sa by prefix doubling
// with counting sorts (Manber-Myers over cyclic shifts): round k has the
// rotations sorted and classed by their first k bytes, and two stable
// counting passes over the classes sort them by their first 2k. It
// stops once all classes are distinct, or once a round splits none:
// then the classes are final and equal rotations remain. It reports
// whether all rotations are distinct, i.e. whether data has no proper
// period dividing its length. O(n log n); no comparisons.
func (s *bwtScratch) sortRotations(data []byte) bool {
	n := len(data)
	s.sa, s.tmp, s.cls, s.next = grow(s.sa, n), grow(s.tmp, n), grow(s.cls, n), grow(s.next, n)
	s.cnt = grow(s.cnt, max(n, 256))
	sa, tmp, cls, next := s.sa, s.tmp, s.cls, s.next
	cnt := s.cnt[:256]
	clear(cnt)
	for _, b := range data {
		cnt[b]++
	}
	for v := 1; v < 256; v++ {
		cnt[v] += cnt[v-1]
	}
	for i := n - 1; i >= 0; i-- {
		cnt[data[i]]--
		sa[cnt[data[i]]] = int32(i)
	}
	classes := int32(1)
	cls[sa[0]] = 0
	for j := 1; j < n; j++ {
		if data[sa[j]] != data[sa[j-1]] {
			classes++
		}
		cls[sa[j]] = classes - 1
	}
	for k := 1; k < n && int(classes) < n; k <<= 1 {
		// sa is in order of the first k bytes; each entry moved back by
		// k puts the rotations in order of their second k bytes.
		for j, p := range sa {
			q := int(p) - k
			if q < 0 {
				q += n
			}
			tmp[j] = int32(q)
		}
		// A stable counting sort by the first k bytes' class.
		cnt = s.cnt[:classes]
		clear(cnt)
		for _, q := range tmp {
			cnt[cls[q]]++
		}
		for v := 1; v < len(cnt); v++ {
			cnt[v] += cnt[v-1]
		}
		for j := n - 1; j >= 0; j-- {
			q := tmp[j]
			cnt[cls[q]]--
			sa[cnt[cls[q]]] = q
		}
		prev := classes
		classes = 1
		next[sa[0]] = 0
		for j := 1; j < n; j++ {
			a, b := int(sa[j]), int(sa[j-1])
			a2, b2 := a+k, b+k
			if a2 >= n {
				a2 -= n
			}
			if b2 >= n {
				b2 -= n
			}
			if cls[a] != cls[b] || cls[a2] != cls[b2] {
				classes++
			}
			next[a] = classes - 1
		}
		cls, next = next, cls
		if classes == prev {
			// Equal classes at k and 2k bytes stay equal at every length.
			break
		}
	}
	return int(classes) == n
}

// sortTied orders data's rotations into s.sa by comparison prefix
// doubling in O(n log² n), for periodic blocks only. Equal rotations
// are ordered by whatever the sort does with ties, so what has to hold
// is: the same algorithm as the reference transform (the standard
// library's pattern-defeating quicksort, which sort.Slice and
// slices.SortFunc both instantiate), started from the same idx order,
// and given the same outcome for every comparison. Packing the pair
// into one word, or comparing through a typed function instead of
// sort.Slice's reflection-based swapper, makes a comparison cheaper
// without changing its result.
func (s *bwtScratch) sortTied(data []byte) {
	n := len(data)
	s.keys = grow(s.keys, n)
	rank, idx, tmp, keys := s.cls, s.sa, s.next, s.keys
	for i, b := range data {
		rank[i] = int32(b)
		idx[i] = int32(i)
	}
	for k := 1; ; k <<= 1 {
		for i := range keys {
			keys[i] = uint64(rank[i])<<32 | uint64(rank[(i+k)%n])
		}
		slices.SortFunc(idx, func(a, b int32) int { return cmp.Compare(keys[a], keys[b]) })
		tmp[idx[0]] = 0
		for i := 1; i < n; i++ {
			tmp[idx[i]] = tmp[idx[i-1]]
			if keys[idx[i-1]] != keys[idx[i]] {
				tmp[idx[i]]++
			}
		}
		copy(rank, tmp)
		if int(rank[idx[n-1]]) == n-1 || k >= n {
			break
		}
	}
}

// unbwt inverts the Burrows-Wheeler Transform.
func unbwt(last []byte, primary int) []byte {
	n := len(last)
	if n == 0 {
		return nil
	}
	// LF mapping: row i of the sorted matrix corresponds to the rotation
	// obtained by prepending last[i]; LF[i] is that rotation's row.
	var count [256]int
	for _, b := range last {
		count[b]++
	}
	var c [256]int
	sum := 0
	for v := 0; v < 256; v++ {
		c[v] = sum
		sum += count[v]
	}
	lf := make([]int, n)
	var occ [256]int
	for i, b := range last {
		lf[i] = c[b] + occ[b]
		occ[b]++
	}
	out := make([]byte, n)
	row := primary
	for k := n - 1; k >= 0; k-- {
		out[k] = last[row]
		row = lf[row]
	}
	return out
}
