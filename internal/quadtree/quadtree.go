// Package quadtree implements the paper's compact, pointerless
// region-quadtree representation of join-attribute tuple sets (§V-C,
// Figs. 8 and 9).
//
// A set of Z-order keys (package zorder) is stored as a bitstring in
// depth-first order. At every position there is either an index node —
// a '0' bit followed by a presence mask over the quadrants of the next
// level — or a list of points: each point is a '1' bit followed by the
// key's remaining bits relative to the current path, and the list is
// terminated by a '0' bit. The decomposition stops exactly when listing
// the points costs fewer bits than subdividing further (the paper's
// cost-based decomposition threshold), which makes the encoding canonical:
// equal sets encode to equal bitstrings.
//
// The topmost level consumes the relation-flag bits, so the root index
// node "represents the relation flags" as in the paper. Because levels
// may consume different bit counts (unequal dimension widths), the level
// schedule comes from zorder.Grid.Levels().
package quadtree

import (
	"fmt"
	"slices"
	"sort"
	"sync"

	"sensjoin/internal/bitstream"
	"sensjoin/internal/zorder"
)

// Encoded is a wire-format quadtree: Bits significant bits in Data.
// The zero value is the empty set.
type Encoded struct {
	Data []byte
	Bits int
}

// ByteLen returns the wire size in bytes.
func (e Encoded) ByteLen() int { return (e.Bits + 7) / 8 }

// Empty reports whether the set has no points.
func (e Encoded) Empty() bool { return e.Bits == 0 }

// Codec encodes and decodes key sets for one level schedule.
type Codec struct {
	levels []int
	total  int
	// suffix[l] is the number of key bits remaining below level l.
	suffix []int
}

// NewCodec builds a codec for the given per-level bit widths (the flag
// level first), as produced by zorder.Grid.Levels().
func NewCodec(levels []int) (*Codec, error) {
	if len(levels) == 0 {
		return nil, fmt.Errorf("quadtree: empty level schedule")
	}
	c := &Codec{levels: append([]int(nil), levels...)}
	for i, l := range levels {
		if l < 1 || l > 16 {
			return nil, fmt.Errorf("quadtree: level %d has invalid width %d", i, l)
		}
		c.total += l
	}
	if c.total > 64 {
		return nil, fmt.Errorf("quadtree: %d total bits exceed 64", c.total)
	}
	c.suffix = make([]int, len(levels)+1)
	c.suffix[len(levels)] = 0
	for i := len(levels) - 1; i >= 0; i-- {
		c.suffix[i] = c.suffix[i+1] + levels[i]
	}
	return c, nil
}

// Encode produces the canonical wire form of the given keys. The input
// is not modified; duplicates are removed.
func (c *Codec) Encode(keys []zorder.Key) Encoded {
	set := NormalizeKeys(keys)
	if len(set) == 0 {
		return Encoded{}
	}
	// The decomposition of a sorted key set is fully determined by the
	// key bits: at level l the subtree starting at index i always covers
	// the same contiguous range, whatever the enclosing list/split
	// choices. Costs are therefore memoized per (level, start index),
	// computed once and reused by every emit decision on the path.
	s := encodePool.Get().(*encodeState)
	defer encodePool.Put(s)
	s.c = c
	s.keys = set
	depth := len(c.levels) + 1
	if need := depth * len(set); cap(s.memo) < need {
		s.memo = make([]int32, need)
	} else {
		s.memo = s.memo[:need]
	}
	for i := range s.memo {
		s.memo[i] = -1
	}
	s.w.Reset()
	s.emit(0, len(set), 0)
	e := Encoded{Data: append([]byte(nil), s.w.Bytes()...), Bits: s.w.Len()}
	s.keys = nil
	return e
}

// encodeState carries one Encode call's memo and writer; pooled so
// steady-state encoding does not allocate per call.
type encodeState struct {
	c    *Codec
	keys []zorder.Key
	memo []int32 // memo[l*len(keys)+start]: subtree cost, -1 unset
	w    bitstream.Writer
}

var encodePool = sync.Pool{New: func() any { return new(encodeState) }}

// run returns the end of the quadrant run starting at index start on
// level l, together with the quadrant number.
func (s *encodeState) run(start, end, l int) (int, zorder.Key) {
	shift := uint(s.c.suffix[l+1])
	mask := zorder.Key(1)<<uint(s.c.levels[l]) - 1
	q := (s.keys[start] >> shift) & mask
	en := start
	for en < end && (s.keys[en]>>shift)&mask == q {
		en++
	}
	return en, q
}

// cost returns the encoded size in bits of keys[start:end] at level l
// when choosing optimally between a point list and a subdivision.
func (s *encodeState) cost(start, end, l int) int {
	m := &s.memo[l*len(s.keys)+start]
	if *m >= 0 {
		return int(*m)
	}
	c := s.c
	costList := (end-start)*(1+c.suffix[l]) + 1
	v := costList
	if l != len(c.levels) && end-start > 1 {
		costSplit := 1 + (1 << uint(c.levels[l]))
		for st := start; st < end; {
			en, _ := s.run(st, end, l)
			costSplit += s.cost(st, en, l+1)
			st = en
		}
		if costSplit < costList {
			v = costSplit
		}
	}
	*m = int32(v)
	return v
}

func (s *encodeState) emit(start, end, l int) {
	c := s.c
	costList := (end-start)*(1+c.suffix[l]) + 1
	mustList := l == len(c.levels) || end-start == 1
	if !mustList {
		costSplit := 1 + (1 << uint(c.levels[l]))
		for st := start; st < end; {
			en, _ := s.run(st, end, l)
			costSplit += s.cost(st, en, l+1)
			st = en
		}
		if costSplit < costList {
			// Index node: '0' + presence mask, then children in
			// quadrant order. Runs come sorted by quadrant.
			s.w.WriteBit(0)
			fanout := 1 << uint(c.levels[l])
			ri := start
			for q := zorder.Key(0); q < zorder.Key(fanout); q++ {
				if ri < end {
					en, rq := s.run(ri, end, l)
					if rq == q {
						s.w.WriteBit(1)
						ri = en
						continue
					}
				}
				s.w.WriteBit(0)
			}
			for st := start; st < end; {
				en, _ := s.run(st, end, l)
				s.emit(st, en, l+1)
				st = en
			}
			return
		}
	}
	// Point list: each point '1' + relative suffix; '0' terminates.
	r := c.suffix[l]
	suffixMask := ^zorder.Key(0)
	if r < 64 {
		suffixMask = (zorder.Key(1) << uint(r)) - 1
	}
	for _, k := range s.keys[start:end] {
		s.w.WriteBit(1)
		s.w.WriteBits(k&suffixMask, r)
	}
	s.w.WriteBit(0)
}

// SizeBits returns Encode(keys).Bits without building the encoding. The
// simulator charges messages by size only, so the common caller never
// needs the bitstring: the size follows from the cost recursion alone,
// one pass over the keys per level, with no memo, no bit emission and no
// allocation. Input that is not already a sorted set is normalized first
// (one copy), so the answer always equals Encode's.
func (c *Codec) SizeBits(keys []zorder.Key) int {
	if len(keys) == 0 {
		return 0
	}
	for i := 1; i < len(keys); i++ {
		if keys[i] <= keys[i-1] {
			keys = NormalizeKeys(keys)
			break
		}
	}
	return c.sizeBits(keys, 0)
}

// SizeBytes returns Encode(keys).ByteLen().
func (c *Codec) SizeBytes(keys []zorder.Key) int { return (c.SizeBits(keys) + 7) / 8 }

// sizeBits is encodeState.cost without the memo: every (level, run) is
// visited once, and a subdivision is abandoned as soon as its children
// cost as much as the point list (every child costs at least one bit).
func (c *Codec) sizeBits(keys []zorder.Key, l int) int {
	costList := len(keys)*(1+c.suffix[l]) + 1
	if l == len(c.levels) || len(keys) == 1 {
		return costList
	}
	costSplit := 1 + (1 << uint(c.levels[l]))
	shift := uint(c.suffix[l+1])
	mask := zorder.Key(1)<<uint(c.levels[l]) - 1
	for st := 0; st < len(keys); {
		if costSplit >= costList {
			return costList
		}
		q := (keys[st] >> shift) & mask
		en := st + 1
		for en < len(keys) && (keys[en]>>shift)&mask == q {
			en++
		}
		costSplit += c.sizeBits(keys[st:en], l+1)
		st = en
	}
	if costSplit < costList {
		return costSplit
	}
	return costList
}

// Decode returns the sorted key set of e.
func (c *Codec) Decode(e Encoded) ([]zorder.Key, error) {
	if e.Empty() {
		return nil, nil
	}
	r := bitstream.NewReader(e.Data, e.Bits)
	var out []zorder.Key
	if err := c.decode(r, 0, 0, &out); err != nil {
		return nil, err
	}
	if r.Err() != nil {
		return nil, r.Err()
	}
	if r.Remaining() >= 8 {
		return nil, fmt.Errorf("quadtree: %d trailing bits after decode", r.Remaining())
	}
	return out, nil
}

func (c *Codec) decode(r *bitstream.Reader, l int, prefix zorder.Key, out *[]zorder.Key) error {
	first := r.ReadBit()
	if r.Err() != nil {
		return r.Err()
	}
	if first == 1 {
		// Point list. The leading '1' of each subsequent point doubles
		// as the "not end of list" marker.
		rbits := c.suffix[l]
		for {
			suffix := r.ReadBits(rbits)
			if r.Err() != nil {
				return r.Err()
			}
			*out = append(*out, prefix<<uint(rbits)|suffix)
			if r.ReadBit() == 0 {
				break
			}
			if r.Err() != nil {
				return r.Err()
			}
		}
		return nil
	}
	// Index node.
	if l >= len(c.levels) {
		return fmt.Errorf("quadtree: index node below the deepest level")
	}
	// The presence mask has one bit per quadrant, 2 to 65536 of them: read
	// in words of up to 64 bits, most significant first.
	fanout := 1 << uint(c.levels[l])
	width := min(fanout, 64)
	var one [1]uint64
	mask := one[:]
	if fanout > 64 {
		mask = make([]uint64, fanout/64)
	}
	empty := true
	for i := range mask {
		mask[i] = r.ReadBits(width)
		empty = empty && mask[i] == 0
	}
	if r.Err() != nil {
		return r.Err()
	}
	if empty {
		return fmt.Errorf("quadtree: index node with empty presence mask")
	}
	for q := 0; q < fanout; q++ {
		if mask[q/64]&(1<<uint(width-1-q%64)) == 0 {
			continue
		}
		if err := c.decode(r, l+1, prefix<<uint(c.levels[l])|zorder.Key(q), out); err != nil {
			return err
		}
	}
	return nil
}

// NormalizeKeys returns a sorted, duplicate-free copy of keys.
func NormalizeKeys(keys []zorder.Key) []zorder.Key {
	if len(keys) == 0 {
		return nil
	}
	out := append([]zorder.Key(nil), keys...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	w := 1
	for i := 1; i < len(out); i++ {
		if out[i] != out[w-1] {
			out[w] = out[i]
			w++
		}
	}
	return out[:w]
}

// UnionAll merges sorted key sets into one set: one k-way merge, or
// UnionKeys for two sets. A first pass only counts the union, so when the
// other sets add nothing to base, base itself is returned and nothing is
// written; callers never write into a key set in place. Otherwise the
// union is written into dst's storage when its capacity holds it, and
// into a fresh, exactly sized slice when it does not (dst nil: always).
// The other sets are only read, so they may live in the caller's scratch.
func UnionAll(dst, base []zorder.Key, more ...[]zorder.Key) []zorder.Key {
	if len(more) == 1 {
		return UnionKeys(dst, base, more[0])
	}
	var buf [8]int
	pos := buf[:0]
	for range len(more) + 1 {
		pos = append(pos, 0)
	}
	_, n := mergeSets(base, more, pos, nil)
	if n == len(base) {
		return base
	}
	clear(pos)
	out, _ := mergeSets(base, more, pos, sizedFor(dst, n))
	return out
}

// UnionKeys merges two sorted key sets. b's keys are placed in a by
// binary search and the runs of a between them are copied whole, so a
// few keys added to a large set cost little more than one copy of it.
// When b adds nothing, a itself is returned; otherwise the result goes
// where UnionAll puts it: into dst's storage if it fits, else into a
// fresh, exactly sized slice.
func UnionKeys(dst, a, b []zorder.Key) []zorder.Key {
	n, rest := len(a), a
	for _, k := range b {
		i, found := slices.BinarySearch(rest, k)
		if !found {
			n++
		}
		rest = rest[i:]
	}
	if n == len(a) {
		return a
	}
	out := sizedFor(dst, n)
	for _, k := range b {
		i, found := slices.BinarySearch(a, k)
		out = append(out, a[:i]...)
		if !found {
			out = append(out, k)
		}
		a = a[i:]
	}
	return append(out, a...)
}

// sizedFor returns dst emptied when it can hold n keys, else a fresh
// slice of capacity n.
func sizedFor(dst []zorder.Key, n int) []zorder.Key {
	if cap(dst) < n {
		return make([]zorder.Key, 0, n)
	}
	return dst[:0]
}

// mergeSets appends the union of base and more to out (nil: only counts
// it) and returns its size; pos[i] is where set i, base first, resumes.
func mergeSets(base []zorder.Key, more [][]zorder.Key, pos []int, out []zorder.Key) ([]zorder.Key, int) {
	set := func(i int) []zorder.Key {
		if i == 0 {
			return base
		}
		return more[i-1]
	}
	for n := 0; ; n++ {
		var least zorder.Key
		found := false
		for i := range pos {
			if s := set(i); pos[i] < len(s) && (!found || s[pos[i]] < least) {
				least, found = s[pos[i]], true
			}
		}
		if !found {
			return out, n
		}
		for i := range pos {
			if s := set(i); pos[i] < len(s) && s[pos[i]] == least {
				pos[i]++
			}
		}
		if out != nil {
			out = append(out, least)
		}
	}
}

// IntersectKeys intersects two sorted key sets, appending to dst's
// storage (emptied first; nil: a fresh slice).
func IntersectKeys(dst, a, b []zorder.Key) []zorder.Key {
	out := dst[:0]
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	return out
}

// ContainsKey reports whether sorted keys contains k.
func ContainsKey(keys []zorder.Key, k zorder.Key) bool {
	i := sort.Search(len(keys), func(i int) bool { return keys[i] >= k })
	return i < len(keys) && keys[i] == k
}
