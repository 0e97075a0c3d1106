package compress

import (
	"bytes"
	"container/heap"
	"math/rand"
	"testing"
)

// buildLengthsReference is buildLengths as it was before its nodes moved
// into pooled, index-based scratch: pointer nodes boxed through
// container/heap. It is the oracle for tie order — equal-weight internal
// nodes compare equal, so the heap's sift sequence picks the tree.

type huffNodeRef struct {
	weight int
	sym    int // -1 for internal
	l, r   *huffNodeRef
}

type huffHeapRef []*huffNodeRef

func (h huffHeapRef) Len() int { return len(h) }
func (h huffHeapRef) Less(i, j int) bool {
	if h[i].weight != h[j].weight {
		return h[i].weight < h[j].weight
	}
	return h[i].sym < h[j].sym
}
func (h huffHeapRef) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *huffHeapRef) Push(x any)   { *h = append(*h, x.(*huffNodeRef)) }
func (h *huffHeapRef) Pop() any {
	old := *h
	n := len(old)
	v := old[n-1]
	*h = old[:n-1]
	return v
}

func buildLengthsReference(freq []int, lengths []byte) {
	for i := range lengths {
		lengths[i] = 0
	}
	h := &huffHeapRef{}
	for sym, f := range freq {
		if f > 0 {
			heap.Push(h, &huffNodeRef{weight: f, sym: sym})
		}
	}
	switch h.Len() {
	case 0:
		return
	case 1:
		lengths[(*h)[0].sym] = 1
		return
	}
	for h.Len() > 1 {
		a := heap.Pop(h).(*huffNodeRef)
		b := heap.Pop(h).(*huffNodeRef)
		heap.Push(h, &huffNodeRef{weight: a.weight + b.weight, sym: -1, l: a, r: b})
	}
	root := heap.Pop(h).(*huffNodeRef)
	var walk func(n *huffNodeRef, depth byte)
	walk = func(n *huffNodeRef, depth byte) {
		if n.sym >= 0 {
			lengths[n.sym] = depth
			return
		}
		walk(n.l, depth+1)
		walk(n.r, depth+1)
	}
	walk(root, 0)
}

// TestBuildLengthsMatchesReference feeds both routines distributions
// chosen to tie: flat, few distinct weights, powers of two, sparse and
// dense alphabets, and the empty and single-symbol corners.
func TestBuildLengthsMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	check := func(name string, freq []int) {
		t.Helper()
		got, want := make([]byte, len(freq)), make([]byte, len(freq))
		buildLengths(freq, got)
		buildLengthsReference(freq, want)
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: code lengths differ\n got %v\nwant %v", name, got, want)
		}
	}
	check("empty", make([]int, alphabetLen))
	one := make([]int, alphabetLen)
	one[symEOB] = 1
	check("single", one)
	for trial := 0; trial < 400; trial++ {
		freq := make([]int, alphabetLen)
		used := 1 + rng.Intn(alphabetLen)
		for k := 0; k < used; k++ {
			sym := rng.Intn(alphabetLen)
			switch trial % 4 {
			case 0:
				freq[sym] = 1 // all ties
			case 1:
				freq[sym] = 1 + rng.Intn(3) // few distinct weights
			case 2:
				freq[sym] = 1 << rng.Intn(12) // sums collide with leaves
			default:
				freq[sym] = 1 + rng.Intn(5000)
			}
		}
		check("random", freq)
	}
}

// TestBuildLengthsAllocs pins the point of the rewrite: a warm call
// allocates nothing.
func TestBuildLengthsAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector")
	}
	freq := make([]int, alphabetLen)
	for i := range freq {
		freq[i] = 1 + i%7
	}
	lengths := make([]byte, alphabetLen)
	buildLengths(freq, lengths)
	if n := testing.AllocsPerRun(50, func() { buildLengths(freq, lengths) }); n > 0 {
		t.Fatalf("buildLengths allocates %.0f times per warm call", n)
	}
}
