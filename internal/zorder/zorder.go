// Package zorder implements the quantization and Z-order encoding of
// join-attribute tuples (paper §V-B, Figs. 6 and 7).
//
// A join-attribute tuple is a point in an n-dimensional space. Each
// dimension is quantized by a [min, max] range and a resolution; the cell
// count is rounded up to a power of two so a coordinate fits in a fixed
// number of bits. A tuple's Z-number is the bit interleaving of its cell
// coordinates, taken MSB-first; dimensions with fewer bits drop out of
// the interleaving once their bits are exhausted, exactly as the paper
// describes ("each dimension contributes to the bit interleaving until
// its bits are exhausted").
//
// Keys are additionally prefixed with relation flags (one bit per input
// relation, §V-C "Encoding of relation membership"), which form the
// topmost level of the quadtree the keys are later stored in. The level
// schedule — how many bits each quadtree level consumes — is derived here
// and shared with package quadtree.
package zorder

import (
	"fmt"
	"math"
)

// Dim is one quantized dimension.
type Dim struct {
	// Name identifies the attribute this dimension encodes.
	Name string
	// Min and Max bound the value range; out-of-range values clamp to
	// the boundary cells (paper Fig. 7, lines 12-15).
	Min, Max float64
	// Res is the quantization step.
	Res float64
	// Size is the cell count, rounded up to a power of two.
	Size uint32
	// Bits is log2(Size).
	Bits int
}

// NewDim computes the derived fields per the paper's Fig. 7 (lines 2-5):
// SizeOfDim = floor((Max-Min)/Res) + 1, rounded up to a power of two.
func NewDim(name string, min, max, res float64) (Dim, error) {
	if !(max > min) {
		return Dim{}, fmt.Errorf("zorder: dimension %q has empty range [%g, %g]", name, min, max)
	}
	if !(res > 0) {
		return Dim{}, fmt.Errorf("zorder: dimension %q has non-positive resolution %g", name, res)
	}
	cells := uint64(math.Floor((max-min)/res)) + 1
	size, bits := uint64(1), 0
	for size < cells {
		size <<= 1
		bits++
	}
	if bits > 32 {
		return Dim{}, fmt.Errorf("zorder: dimension %q needs %d bits (range too wide for resolution)", name, bits)
	}
	return Dim{Name: name, Min: min, Max: max, Res: res, Size: uint32(size), Bits: bits}, nil
}

// Cell maps a value to its cell coordinate, clamping out-of-range values
// to the boundary (which can only introduce false positives, never drop
// result tuples — paper §V-B).
func (d Dim) Cell(v float64) uint32 {
	c := math.Floor((v - d.Min) / d.Res)
	if c < 0 {
		return 0
	}
	if c >= float64(d.Size) {
		return d.Size - 1
	}
	return uint32(c)
}

// Bounds returns the value interval covered by cell c. The interval is
// closed on both ends, which is conservative for tri-state evaluation.
// Boundary cells extend to infinity on the clamped side, because clamped
// out-of-range values land there.
func (d Dim) Bounds(c uint32) (lo, hi float64) {
	lo = d.Min + float64(c)*d.Res
	hi = lo + d.Res
	if c == 0 {
		lo = math.Inf(-1)
	}
	if c == d.Size-1 {
		hi = math.Inf(1)
	}
	return lo, hi
}

// Key is an encoded point: relation flags followed by the Z-number,
// right-aligned in a uint64 (the first bit of the encoding is the most
// significant used bit). Numeric order of keys equals Z-order.
type Key = uint64

// Grid is the full encoding context for one query's join attributes.
type Grid struct {
	// Dims holds the quantized dimensions in join-attribute order.
	Dims []Dim
	// FlagBits is the number of relation-flag bits prefixed to each
	// point (one per input relation; 2 in the paper's presentation).
	FlagBits int
	// TotalBits is FlagBits plus the sum of dimension bits.
	TotalBits int
	// levels[l] is the number of bits quadtree level l consumes:
	// levels[0] is the flag prefix, then one entry per interleaving
	// round with the count of still-active dimensions.
	levels []int
}

// NewGrid builds a grid for the given dimensions and relation count.
func NewGrid(flagBits int, dims []Dim) (*Grid, error) {
	if flagBits < 1 || flagBits > 8 {
		return nil, fmt.Errorf("zorder: flag bits %d out of range [1, 8]", flagBits)
	}
	if len(dims) == 0 {
		return nil, fmt.Errorf("zorder: no dimensions")
	}
	g := &Grid{Dims: dims, FlagBits: flagBits, TotalBits: flagBits}
	maxBits := 0
	for _, d := range dims {
		g.TotalBits += d.Bits
		if d.Bits > maxBits {
			maxBits = d.Bits
		}
	}
	if g.TotalBits > 64 {
		return nil, fmt.Errorf("zorder: %d total bits exceed the 64-bit key budget", g.TotalBits)
	}
	g.levels = append(g.levels, flagBits)
	for l := 0; l < maxBits; l++ {
		active := 0
		for _, d := range dims {
			if d.Bits > l {
				active++
			}
		}
		g.levels = append(g.levels, active)
	}
	return g, nil
}

// Levels returns the per-level bit widths (flag level first). The slice
// is shared; callers must not modify it.
func (g *Grid) Levels() []int { return g.levels }

// Encode quantizes vals (aligned with Dims) and interleaves them under
// the given relation flags.
func (g *Grid) Encode(flags uint64, vals []float64) Key {
	coords := make([]uint32, len(g.Dims))
	for i, d := range g.Dims {
		coords[i] = d.Cell(vals[i])
	}
	return g.Interleave(flags, coords)
}

// Interleave packs flags and cell coordinates into a key. Round l takes
// the (l+1)-th most significant bit of every dimension that still has
// bits left, in dimension order.
func (g *Grid) Interleave(flags uint64, coords []uint32) Key {
	if len(coords) != len(g.Dims) {
		panic(fmt.Sprintf("zorder: %d coords for %d dims", len(coords), len(g.Dims)))
	}
	var k Key
	used := 0
	put := func(bit uint64) {
		k = k<<1 | (bit & 1)
		used++
	}
	for b := g.FlagBits - 1; b >= 0; b-- {
		put(flags >> uint(b))
	}
	maxBits := len(g.levels) - 1
	for l := 0; l < maxBits; l++ {
		for i, d := range g.Dims {
			if d.Bits > l {
				put(uint64(coords[i]) >> uint(d.Bits-1-l))
			}
		}
	}
	if used != g.TotalBits {
		panic(fmt.Sprintf("zorder: interleaved %d bits, want %d", used, g.TotalBits))
	}
	return k
}

// DeinterleaveInto splits a key back into relation flags and cell
// coordinates, writing the coordinates into a caller-provided buffer,
// which must have len(g.Dims) entries; it allocates nothing, for hot
// paths that deinterleave many keys. The filled buffer is also returned
// as coords.
func (g *Grid) DeinterleaveInto(k Key, buf []uint32) (flags uint64, coords []uint32) {
	coords = buf
	for i := range coords {
		coords[i] = 0
	}
	pos := g.TotalBits
	get := func() uint64 {
		pos--
		return (k >> uint(pos)) & 1
	}
	for b := 0; b < g.FlagBits; b++ {
		flags = flags<<1 | get()
	}
	maxBits := len(g.levels) - 1
	for l := 0; l < maxBits; l++ {
		for i, d := range g.Dims {
			if d.Bits > l {
				coords[i] = coords[i]<<1 | uint32(get())
			}
		}
	}
	return flags, coords
}

// Flags extracts just the relation flags of a key.
func (g *Grid) Flags(k Key) uint64 {
	return k >> uint(g.TotalBits-g.FlagBits)
}

// WithFlags returns k with its flag bits replaced by flags.
func (g *Grid) WithFlags(k Key, flags uint64) Key {
	shift := uint(g.TotalBits - g.FlagBits)
	mask := (uint64(1)<<uint(g.FlagBits) - 1) << shift
	return (k &^ mask) | (flags << shift)
}

// FlagFor returns the flag bit for relation index rel (0-based) among
// nRel relations: relation 0 is the most significant flag bit, matching
// the paper's '10' = A, '01' = B convention.
func FlagFor(rel, nRel int) uint64 {
	return 1 << uint(nRel-1-rel)
}
