package main

import (
	"math"
	"slices"
	"sort"
	"time"
)

// median returns the median of xs (mean of the middle two for an even
// count) without modifying xs; 0 for an empty slice.
func median(xs []float64) float64 {
	return quantileOf(xs, 0.5)
}

// quantileOf returns the linearly interpolated q-quantile of xs
// without modifying it.
func quantileOf(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
}

func sum(xs []float64) float64 {
	total := 0.0
	for _, x := range xs {
		total += x
	}
	return total
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}

// collect maps every element of xs to one number.
func collect[T any](xs []T, f func(T) float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = f(x)
	}
	return out
}

// sliceRate is the throughput estimator of the serving workloads: the
// window is cut into whole slices of the given width, completions are
// counted per slice, and the median slice's rate is reported. A stall
// or a burst (GC cycle, a neighbour VM waking up) lands in one or two
// slices and leaves the median alone, where the plain mean over the
// window moves with it. done holds completion offsets from the window
// start; completions beyond the last whole slice are ignored.
func sliceRate(done []time.Duration, window, width time.Duration) float64 {
	if window < width { // shorter than one slice: the window is the slice
		width = window
	}
	return median(sliceCounts(done, window, width)) / width.Seconds()
}

func sliceCounts(done []time.Duration, window, width time.Duration) []float64 {
	n := int(window / width)
	counts := make([]float64, n)
	for _, d := range done {
		if i := int(d / width); d >= 0 && i < n {
			counts[i]++
		}
	}
	return counts
}

// tailPercentile picks the highest percentile that still has at least
// ten samples beyond it, stepping through 90, 95, 99, 99.9, 99.99, and
// returns it with its value. With fewer than 100 samples no such
// percentile exists above the median and it reports the median (50).
func tailPercentile(xs []float64) (pct, value float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pct = 50
	for _, oneIn := range []int{10, 20, 100, 1000, 10000} { // p90, p95, p99, p99.9, p99.99
		if len(s)/oneIn < 10 {
			break
		}
		pct = 100 - 100/float64(oneIn)
	}
	if len(s) == 0 {
		return pct, 0
	}
	return pct, s[int(float64(len(s)-1)*pct/100)]
}

// tableDigest is what the oracle compares for one result table: the
// shape, the completeness facts and an order-independent hash of the
// rows' IEEE-754 bits.
type tableDigest struct {
	cols         []string
	rows         int
	complete     bool
	contributing int
	members      int
	hash         uint64
}

// hashRows folds every row into a 64-bit value that does not depend on
// row order: each row is hashed on its own (FNV-1a over the float bits,
// then a splitmix64 finalizer so that near-equal rows spread), and the
// row hashes are combined by wrapping sum and xor. It allocates
// nothing, so verifying every reply stays cheap next to the op itself.
func hashRows[R ~[]float64](rows []R) uint64 {
	var sum, xor uint64
	for _, row := range rows {
		h := uint64(14695981039346656037)
		for _, v := range row {
			b := math.Float64bits(v)
			for i := 0; i < 8; i++ {
				h ^= b & 0xff
				h *= 1099511628211
				b >>= 8
			}
		}
		h ^= h >> 30
		h *= 0xbf58476d1ce4e5b9
		h ^= h >> 27
		h *= 0x94d049bb133111eb
		h ^= h >> 31
		sum += h
		xor ^= h
	}
	return sum ^ (xor * 0x9e3779b97f4a7c15) ^ uint64(len(rows))
}

func (a tableDigest) equal(b tableDigest) bool {
	return slices.Equal(a.cols, b.cols) && a.rows == b.rows && a.complete == b.complete &&
		a.contributing == b.contributing && a.members == b.members && a.hash == b.hash
}
