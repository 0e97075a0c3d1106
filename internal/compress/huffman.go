package compress

import (
	"fmt"
	"sync"

	"sensjoin/internal/bitstream"
)

// maxCodeLen bounds canonical Huffman code lengths so lengths fit in 4
// bits on the wire.
const maxCodeLen = 15

// huffCodeLengths writes into lengths (len(lengths) == len(freq)) the
// code lengths for the given symbol frequencies (zero-frequency symbols
// get length 0). Lengths exceeding maxCodeLen are avoided by flattening
// the frequency distribution, in place in freq, and rebuilding.
func huffCodeLengths(freq []int, lengths []byte) {
	for {
		buildLengths(freq, lengths)
		maxLen := byte(0)
		for _, l := range lengths {
			if l > maxLen {
				maxLen = l
			}
		}
		if maxLen <= maxCodeLen {
			return
		}
		// Flatten: halving (and clamping at 1) shortens the deepest
		// codes; a couple of iterations suffice in practice.
		for i, v := range freq {
			if v > 0 {
				freq[i] = v/2 + 1
			}
		}
	}
}

// huffNode is a node of the code tree, held by index in huffScratch.nodes
// (a block's alphabet is 259 symbols, so at most 517 nodes).
type huffNode struct {
	weight int
	sym    int32 // -1 for internal
	l, r   int32
}

// huffScratch is the working set of one buildLengths call, kept between
// calls: the tree's nodes and the heap of node indexes over them.
type huffScratch struct {
	nodes []huffNode
	heap  []int32
}

var huffPool = sync.Pool{New: func() any { return new(huffScratch) }}

// The heap is container/heap's algorithm on a typed slice: the same
// comparisons, swaps and sift paths in the same order. That matters
// because the order is not total — internal nodes all carry sym -1, so
// equal-weight subtrees tie — and which of two tied nodes surfaces first
// decides the tree's shape, the code lengths and the compressed size.
// huffman_ref_test.go keeps the container/heap version as the oracle.

func (s *huffScratch) less(i, j int) bool {
	a, b := &s.nodes[s.heap[i]], &s.nodes[s.heap[j]]
	if a.weight != b.weight {
		return a.weight < b.weight
	}
	return a.sym < b.sym // deterministic ties
}

// push adds a node and its heap entry (heap.Push: append, then up).
func (s *huffScratch) push(n huffNode) {
	s.nodes = append(s.nodes, n)
	s.heap = append(s.heap, int32(len(s.nodes)-1))
	j := len(s.heap) - 1
	for {
		i := (j - 1) / 2 // parent
		if i == j || !s.less(j, i) {
			break
		}
		s.heap[i], s.heap[j] = s.heap[j], s.heap[i]
		j = i
	}
}

// pop removes the minimum and returns its node index (heap.Pop: swap
// the root with the last entry, down over the rest, drop the last).
func (s *huffScratch) pop() int32 {
	n := len(s.heap) - 1
	s.heap[0], s.heap[n] = s.heap[n], s.heap[0]
	i := 0
	for {
		j1 := 2*i + 1
		if j1 >= n {
			break
		}
		j := j1 // left child
		if j2 := j1 + 1; j2 < n && s.less(j2, j1) {
			j = j2
		}
		if !s.less(j, i) {
			break
		}
		s.heap[i], s.heap[j] = s.heap[j], s.heap[i]
		i = j
	}
	top := s.heap[n]
	s.heap = s.heap[:n]
	return top
}

// assign writes the depth of every leaf below node at into lengths.
func (s *huffScratch) assign(lengths []byte, at int32, depth byte) {
	n := &s.nodes[at]
	if n.sym >= 0 {
		lengths[n.sym] = depth
		return
	}
	s.assign(lengths, n.l, depth+1)
	s.assign(lengths, n.r, depth+1)
}

func buildLengths(freq []int, lengths []byte) {
	clear(lengths)
	s := huffPool.Get().(*huffScratch)
	defer huffPool.Put(s)
	s.nodes, s.heap = s.nodes[:0], s.heap[:0]
	for sym, f := range freq {
		if f > 0 {
			s.push(huffNode{weight: f, sym: int32(sym)})
		}
	}
	switch len(s.heap) {
	case 0:
		return
	case 1:
		// A single symbol still needs one bit on the wire.
		lengths[s.nodes[s.heap[0]].sym] = 1
		return
	}
	for len(s.heap) > 1 {
		a := s.pop()
		b := s.pop()
		s.push(huffNode{weight: s.nodes[a].weight + s.nodes[b].weight, sym: -1, l: a, r: b})
	}
	s.assign(lengths, s.pop(), 0)
}

// canonicalCodes writes into codes (len(codes) >= len(lengths)) the
// canonical codes for the given lengths: shorter codes first, then by
// symbol order.
func canonicalCodes(lengths []byte, codes []uint32) {
	var countPerLen [maxCodeLen + 1]uint32
	for _, l := range lengths {
		if l > 0 {
			countPerLen[l]++
		}
	}
	// Standard DEFLATE recurrence.
	var nextCode [maxCodeLen + 1]uint32
	code := uint32(0)
	for l := 1; l <= maxCodeLen; l++ {
		code = (code + countPerLen[l-1]) << 1
		nextCode[l] = code
	}
	for sym, l := range lengths {
		if l > 0 {
			codes[sym] = nextCode[l]
			nextCode[l]++
		}
	}
}

// huffEncoder writes symbols with the canonical codes of its lengths.
type huffEncoder struct {
	lengths [alphabetLen]byte
	codes   [alphabetLen]uint32
}

// build sets the encoder's lengths and codes for freq, which it may
// flatten (see huffCodeLengths).
func (e *huffEncoder) build(freq []int) {
	huffCodeLengths(freq, e.lengths[:])
	canonicalCodes(e.lengths[:], e.codes[:])
}

func (e *huffEncoder) encode(w *bitstream.Writer, sym int) {
	l := e.lengths[sym]
	if l == 0 {
		panic(fmt.Sprintf("compress: symbol %d has no code", sym))
	}
	w.WriteBits(uint64(e.codes[sym]), int(l))
}

// huffDecoder reads canonical codes bit by bit using the per-length
// first-code table.
type huffDecoder struct {
	// firstCode[l] locates the canonical block of codes of length l;
	// syms lists symbols in canonical order (by length, then symbol).
	firstCode [maxCodeLen + 1]uint32
	countLen  [maxCodeLen + 1]int
	syms      []int
}

func newHuffDecoder(lengths []byte) *huffDecoder {
	d := &huffDecoder{}
	total := 0
	for _, l := range lengths {
		if l > 0 {
			d.countLen[l]++
			total++
		}
	}
	// Same recurrence as canonicalCodes: firstCode[l] is the canonical
	// code assigned to the first symbol of length l.
	code := uint32(0)
	for l := 1; l <= maxCodeLen; l++ {
		code = (code + uint32(d.countLen[l-1])) << 1
		d.firstCode[l] = code
	}
	d.syms = make([]int, 0, total)
	for l := 1; l <= maxCodeLen; l++ {
		for sym, sl := range lengths {
			if int(sl) == l {
				d.syms = append(d.syms, sym)
			}
		}
	}
	return d
}

func (d *huffDecoder) decode(r *bitstream.Reader) (int, error) {
	code := uint32(0)
	base := 0
	for l := 1; l <= maxCodeLen; l++ {
		code = code<<1 | uint32(r.ReadBit())
		if r.Err() != nil {
			return 0, r.Err()
		}
		if d.countLen[l] > 0 && code < d.firstCode[l]+uint32(d.countLen[l]) && code >= d.firstCode[l] {
			return d.syms[base+int(code-d.firstCode[l])], nil
		}
		base += d.countLen[l]
	}
	return 0, fmt.Errorf("compress: invalid Huffman code")
}
