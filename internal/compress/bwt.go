package compress

import (
	"cmp"
	"slices"
	"sync"
)

// bwtScratch is the working set of one bwt call, kept between calls:
// every forwarding node of a BWZ-backed round transforms one small
// block, and four fresh arrays per block were most of what the
// compressor allocated.
type bwtScratch struct {
	rank, idx, tmp []int
	// keys[i] packs rotation i's sort key of the current round,
	// (rank[i], rank[(i+k)%n]), into one word: block sizes are far below
	// 2^32, so comparing the words compares the pairs.
	keys []uint64
}

var bwtPool = sync.Pool{New: func() any { return new(bwtScratch) }}

func (s *bwtScratch) resize(n int) {
	if cap(s.rank) < n {
		s.rank, s.idx, s.tmp = make([]int, n), make([]int, n), make([]int, n)
		s.keys = make([]uint64, n)
	}
	s.rank, s.idx, s.tmp, s.keys = s.rank[:n], s.idx[:n], s.tmp[:n], s.keys[:n]
}

// bwt computes the Burrows-Wheeler Transform of data: the last column of
// the sorted matrix of all rotations, plus the row index of the original
// string. Rotation order is computed by prefix doubling in O(n log^2 n).
//
// Equal rotations (periodic input, e.g. a key set repeated round-robin)
// are ordered by whatever the sort does with ties, and that order picks
// the primary index, which is part of the compressed size. What has to
// hold is therefore: the same algorithm as the reference transform in
// bwt_ref_test.go (the standard library's pattern-defeating quicksort,
// which sort.Slice and slices.SortFunc both instantiate), started from
// the same idx order, and given the same outcome for every comparison.
// Packing the pair into one word, or comparing through a typed function
// instead of sort.Slice's reflection-based swapper, makes a comparison
// cheaper without changing its result.
func bwt(data []byte) (last []byte, primary int) {
	n := len(data)
	if n == 0 {
		return nil, 0
	}
	s := bwtPool.Get().(*bwtScratch)
	defer bwtPool.Put(s)
	s.resize(n)
	// rank[i] is the sort key of the rotation starting at i, refined
	// doubling the compared prefix length each round.
	rank, idx, tmp, keys := s.rank, s.idx, s.tmp, s.keys
	for i, b := range data {
		rank[i] = int(b)
		idx[i] = i
	}
	for k := 1; ; k <<= 1 {
		for i := range keys {
			keys[i] = uint64(rank[i])<<32 | uint64(rank[(i+k)%n])
		}
		slices.SortFunc(idx, func(a, b int) int { return cmp.Compare(keys[a], keys[b]) })
		tmp[idx[0]] = 0
		for i := 1; i < n; i++ {
			tmp[idx[i]] = tmp[idx[i-1]]
			if keys[idx[i-1]] != keys[idx[i]] {
				tmp[idx[i]]++
			}
		}
		copy(rank, tmp)
		if rank[idx[n-1]] == n-1 || k >= n {
			break
		}
	}
	last = make([]byte, n)
	for i, rot := range idx {
		// Rotation starting at rot: its last character is data[rot-1].
		last[i] = data[(rot+n-1)%n]
		if rot == 0 {
			primary = i
		}
	}
	return last, primary
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
