package zorder

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func mustDim(t *testing.T, name string, min, max, res float64) Dim {
	t.Helper()
	d, err := NewDim(name, min, max, res)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func paperGrid(t *testing.T) *Grid {
	t.Helper()
	// The paper's experiment dimensions: temperature at 0.1 degC over
	// [0,40], coordinates at 1 m over [0,1050].
	temp := mustDim(t, "temp", 0, 40, 0.1)
	x := mustDim(t, "x", 0, 1050, 1)
	y := mustDim(t, "y", 0, 1050, 1)
	g, err := NewGrid(2, []Dim{temp, x, y})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestNewDimSizing(t *testing.T) {
	d := mustDim(t, "temp", 0, 40, 0.1)
	// 401 cells -> 512 -> 9 bits.
	if d.Size != 512 || d.Bits != 9 {
		t.Fatalf("temp dim = %+v, want size 512 bits 9", d)
	}
	x := mustDim(t, "x", 0, 1050, 1)
	// 1051 cells -> 2048 -> 11 bits.
	if x.Size != 2048 || x.Bits != 11 {
		t.Fatalf("x dim = %+v, want size 2048 bits 11", x)
	}
	// Paper's point: 600 values and 900 values both need 10 bits.
	d600 := mustDim(t, "a", 0, 599, 1)
	d900 := mustDim(t, "b", 0, 899, 1)
	if d600.Bits != 10 || d900.Bits != 10 {
		t.Fatalf("600->%d bits, 900->%d bits, want 10 and 10", d600.Bits, d900.Bits)
	}
}

func TestNewDimErrors(t *testing.T) {
	if _, err := NewDim("bad", 5, 5, 1); err == nil {
		t.Fatal("empty range must fail")
	}
	if _, err := NewDim("bad", 0, 10, 0); err == nil {
		t.Fatal("zero resolution must fail")
	}
	if _, err := NewDim("bad", 0, 1e12, 0.0001); err == nil {
		t.Fatal(">32 bit dimension must fail")
	}
}

func TestCellClamping(t *testing.T) {
	d := mustDim(t, "temp", 0, 40, 0.1)
	if d.Cell(-5) != 0 {
		t.Fatal("below range must clamp to cell 0")
	}
	if d.Cell(1e9) != d.Size-1 {
		t.Fatal("above range must clamp to last cell")
	}
	if d.Cell(0) != 0 || d.Cell(0.05) != 0 || d.Cell(0.1) != 1 {
		t.Fatal("cell boundaries wrong")
	}
	if d.Cell(23.25) != 232 {
		t.Fatalf("Cell(23.25) = %d, want 232", d.Cell(23.25))
	}
}

func TestBoundsCoverValue(t *testing.T) {
	d := mustDim(t, "temp", 0, 40, 0.1)
	for i := 0; i < 1000; i++ {
		v := rand.New(rand.NewSource(int64(i))).Float64()*50 - 5
		lo, hi := d.Bounds(d.Cell(v))
		if v < lo || v > hi {
			t.Fatalf("value %g outside its cell bounds [%g, %g]", v, lo, hi)
		}
	}
	// Boundary cells are unbounded on the clamped side.
	lo, _ := d.Bounds(0)
	if !math.IsInf(lo, -1) {
		t.Fatal("cell 0 must extend to -inf")
	}
	_, hi := d.Bounds(d.Size - 1)
	if !math.IsInf(hi, 1) {
		t.Fatal("last cell must extend to +inf")
	}
}

func TestGridTotalBitsAndLevels(t *testing.T) {
	g := paperGrid(t)
	// 2 flags + 9 + 11 + 11 = 33 bits.
	if g.TotalBits != 33 {
		t.Fatalf("TotalBits = %d, want 33", g.TotalBits)
	}
	levels := g.Levels()
	// Level 0: flags (2 bits). Rounds 0..8: all three dims active (3
	// bits); rounds 9..10: only x and y (2 bits).
	if levels[0] != 2 {
		t.Fatalf("levels[0] = %d, want 2", levels[0])
	}
	if len(levels) != 1+11 {
		t.Fatalf("levels count = %d, want 12", len(levels))
	}
	for l := 1; l <= 9; l++ {
		if levels[l] != 3 {
			t.Fatalf("levels[%d] = %d, want 3", l, levels[l])
		}
	}
	for l := 10; l <= 11; l++ {
		if levels[l] != 2 {
			t.Fatalf("levels[%d] = %d, want 2", l, levels[l])
		}
	}
	sum := 0
	for _, b := range levels {
		sum += b
	}
	if sum != g.TotalBits {
		t.Fatalf("levels sum %d != total %d", sum, g.TotalBits)
	}
}

func TestGridErrors(t *testing.T) {
	d := mustDim(t, "a", 0, 100, 1)
	if _, err := NewGrid(0, []Dim{d}); err == nil {
		t.Fatal("zero flag bits must fail")
	}
	if _, err := NewGrid(2, nil); err == nil {
		t.Fatal("no dims must fail")
	}
	wide := mustDim(t, "w", 0, 4e9, 1) // 32 bits
	if _, err := NewGrid(2, []Dim{wide, wide, wide}); err == nil {
		t.Fatal(">64 total bits must fail")
	}
}

func TestInterleaveKnownPattern(t *testing.T) {
	// Two 2-bit dims, 2 flag bits: Fig. 6c style.
	a := mustDim(t, "a", 0, 3, 1)
	b := mustDim(t, "b", 0, 3, 1)
	g, err := NewGrid(2, []Dim{a, b})
	if err != nil {
		t.Fatal(err)
	}
	// flags=0b10, a=0b01, b=0b11 -> 10 | 0 1 | 1 1 = 0b100111? Round 0
	// takes MSBs (a1=0, b1=1), round 1 takes LSBs (a0=1, b0=1):
	// 10 01 11 -> 0b100111 = 39.
	k := g.Interleave(0b10, []uint32{0b01, 0b11})
	if k != 0b100111 {
		t.Fatalf("key = %06b, want 100111", k)
	}
	flags, coords := deinterleave(g, k)
	if flags != 0b10 || coords[0] != 0b01 || coords[1] != 0b11 {
		t.Fatalf("deinterleave = %b %v", flags, coords)
	}
}

func TestInterleaveUnequalWidths(t *testing.T) {
	// a has 3 bits, b has 1: rounds are (a2,b0), (a1), (a0).
	a := mustDim(t, "a", 0, 7, 1)
	b := mustDim(t, "b", 0, 1, 1)
	g, err := NewGrid(1, []Dim{a, b})
	if err != nil {
		t.Fatal(err)
	}
	// flags=1, a=0b101, b=0b1 -> 1 | (1,1) | (0) | (1) = 0b11101.
	k := g.Interleave(1, []uint32{0b101, 0b1})
	if k != 0b11101 {
		t.Fatalf("key = %05b, want 11101", k)
	}
	levels := g.Levels()
	if levels[1] != 2 || levels[2] != 1 || levels[3] != 1 {
		t.Fatalf("levels = %v", levels)
	}
}

func TestQuickInterleaveRoundtrip(t *testing.T) {
	g := paperGrid(t)
	f := func(flags uint8, c0, c1, c2 uint32) bool {
		fl := uint64(flags % 4)
		coords := []uint32{c0 % 512, c1 % 2048, c2 % 2048}
		k := g.Interleave(fl, coords)
		gotFl, gotCo := deinterleave(g, k)
		if gotFl != fl {
			return false
		}
		for i := range coords {
			if gotCo[i] != coords[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// deinterleave is DeinterleaveInto with a fresh buffer.
func deinterleave(g *Grid, k Key) (uint64, []uint32) {
	return g.DeinterleaveInto(k, make([]uint32, len(g.Dims)))
}

func TestEncodeCellBounds(t *testing.T) {
	g := paperGrid(t)
	vals := []float64{23.27, 514.9, 17.2}
	k := g.Encode(0b11, vals)
	flags, coords := deinterleave(g, k)
	if flags != 0b11 {
		t.Fatalf("flags = %b", flags)
	}
	for i := range vals {
		lo, hi := g.Dims[i].Bounds(coords[i])
		if vals[i] < lo || vals[i] > hi {
			t.Fatalf("dim %d: value %g outside cell [%g, %g]", i, vals[i], lo, hi)
		}
		if !math.IsInf(lo, 0) && !math.IsInf(hi, 0) && hi-lo > g.Dims[i].Res+1e-9 {
			t.Fatalf("dim %d: cell wider than resolution", i)
		}
	}
}

func TestFlagsHelpers(t *testing.T) {
	g := paperGrid(t)
	k := g.Encode(0b01, []float64{20, 100, 100})
	if g.Flags(k) != 0b01 {
		t.Fatalf("Flags = %b", g.Flags(k))
	}
	k2 := g.WithFlags(k, 0b11)
	if g.Flags(k2) != 0b11 {
		t.Fatalf("WithFlags = %b", g.Flags(k2))
	}
	// Coordinates untouched.
	_, c1 := deinterleave(g, k)
	_, c2 := deinterleave(g, k2)
	for i := range c1 {
		if c1[i] != c2[i] {
			t.Fatal("WithFlags must not disturb coordinates")
		}
	}
}

func TestFlagFor(t *testing.T) {
	// Paper convention: '10' = A (relation 0), '01' = B (relation 1).
	if FlagFor(0, 2) != 0b10 {
		t.Fatalf("FlagFor(0,2) = %b, want 10", FlagFor(0, 2))
	}
	if FlagFor(1, 2) != 0b01 {
		t.Fatalf("FlagFor(1,2) = %b, want 01", FlagFor(1, 2))
	}
	if FlagFor(0, 2)|FlagFor(1, 2) != 0b11 {
		t.Fatal("both relations should be 11")
	}
}

// Z-order locality: nearby points in value space share long key prefixes
// more often than far-apart points. This is the property the quadtree
// exploits (paper Fig. 6).
func TestZOrderLocality(t *testing.T) {
	g := paperGrid(t)
	rng := rand.New(rand.NewSource(7))
	sharedPrefix := func(a, b Key) int {
		for i := g.TotalBits - 1; i >= 0; i-- {
			if (a>>uint(i))&1 != (b>>uint(i))&1 {
				return g.TotalBits - 1 - i
			}
		}
		return g.TotalBits
	}
	var near, far float64
	n := 500
	for i := 0; i < n; i++ {
		base := []float64{rng.Float64() * 40, rng.Float64() * 1050, rng.Float64() * 1050}
		nearby := []float64{base[0] + 0.1, base[1] + 1, base[2] + 1}
		distant := []float64{rng.Float64() * 40, rng.Float64() * 1050, rng.Float64() * 1050}
		k := g.Encode(0b11, base)
		near += float64(sharedPrefix(k, g.Encode(0b11, nearby)))
		far += float64(sharedPrefix(k, g.Encode(0b11, distant)))
	}
	if near <= far*1.5 {
		t.Fatalf("Z-order not locality preserving: near avg %.1f, far avg %.1f bits", near/float64(n), far/float64(n))
	}
}
