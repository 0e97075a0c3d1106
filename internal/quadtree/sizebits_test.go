package quadtree

import (
	"encoding/binary"
	"math/rand"
	"testing"

	"sensjoin/internal/zorder"
)

// sizeCase is one differential input: a level schedule and a key
// multiset (fuzzInput renders it in the byte form FuzzSizeBits consumes).
type sizeCase struct {
	name   string
	levels []int
	keys   []zorder.Key
}

func sizeCases(t testing.TB) []sizeCase {
	temp, _ := zorder.NewDim("temp", 0, 40, 0.1)
	x, _ := zorder.NewDim("x", 0, 1050, 1)
	y, _ := zorder.NewDim("y", 0, 1050, 1)
	g3, err := zorder.NewGrid(2, []zorder.Dim{temp, x, y})
	if err != nil {
		t.Fatal(err)
	}
	g1, err := zorder.NewGrid(2, []zorder.Dim{temp})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	shuffled := randomKeys(g3, rng, 300, true)
	rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	dups := randomKeys(g1, rng, 200, true)
	dups = append(dups, dups[:50]...)
	wide := make([]zorder.Key, 64)
	for i := range wide {
		wide[i] = rng.Uint64() // bits above the schedule's width set
	}
	return []sizeCase{
		{"empty", g3.Levels(), nil},
		{"single", g3.Levels(), []zorder.Key{g3.Encode(0b10, []float64{23.2, 100, 200})}},
		{"pair", g1.Levels(), []zorder.Key{g1.Encode(0b10, []float64{20}), g1.Encode(0b01, []float64{20.1})}},
		{"clustered-3d", g3.Levels(), NormalizeKeys(randomKeys(g3, rng, 1500, true))},
		{"uniform-3d", g3.Levels(), NormalizeKeys(randomKeys(g3, rng, 1500, false))},
		{"clustered-1d", g1.Levels(), NormalizeKeys(randomKeys(g1, rng, 1500, true))},
		{"unsorted", g3.Levels(), shuffled},
		{"duplicates", g1.Levels(), dups},
		{"one-level", []int{6}, []zorder.Key{0, 1, 2, 3, 40, 41, 63}},
		{"wide-levels", []int{16, 16, 16, 16}, NormalizeKeys(wide)},
		{"out-of-range-bits", []int{2, 3, 3}, wide},
		{"dense", []int{2, 2, 2, 2}, denseKeys(256)},
	}
}

func denseKeys(n int) []zorder.Key {
	out := make([]zorder.Key, n)
	for i := range out {
		out[i] = zorder.Key(i)
	}
	return out
}

// SizeBits is Encode's bit count for every input, sorted set or not.
func TestSizeBitsMatchesEncode(t *testing.T) {
	for _, tc := range sizeCases(t) {
		c, err := NewCodec(tc.levels)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		e := c.Encode(tc.keys)
		if got := c.SizeBits(tc.keys); got != e.Bits {
			t.Errorf("%s: SizeBits = %d, Encode(..).Bits = %d", tc.name, got, e.Bits)
		}
		if got := c.SizeBytes(tc.keys); got != e.ByteLen() {
			t.Errorf("%s: SizeBytes = %d, Encode(..).ByteLen() = %d", tc.name, got, e.ByteLen())
		}
	}
}

// Random sorted sets across sizes: the pruned recursion never diverges
// from the memoized one.
func TestSizeBitsRandomSets(t *testing.T) {
	c, g := testCodec(t)
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 300; i++ {
		keys := NormalizeKeys(randomKeys(g, rng, 1+rng.Intn(600), i%2 == 0))
		if got, want := c.SizeBits(keys), c.Encode(keys).Bits; got != want {
			t.Fatalf("iter %d (%d keys): SizeBits = %d, Encode bits = %d", i, len(keys), got, want)
		}
	}
}

// Sizing runs once per simulated message and must not allocate.
func TestSizeBitsAllocs(t *testing.T) {
	c, g := testCodec(t)
	keys := NormalizeKeys(randomKeys(g, rand.New(rand.NewSource(3)), 1500, true))
	if allocs := testing.AllocsPerRun(20, func() { c.SizeBits(keys) }); allocs != 0 {
		t.Errorf("SizeBits: %.0f allocs/run, want 0", allocs)
	}
	// Encode is the reference: its memo and writer are pooled, so what
	// is left is the owned result copy, not an allocation per node or key.
	probe := keys[:50]
	if allocs := testing.AllocsPerRun(10, func() { c.Encode(probe) }); allocs > 20 {
		t.Errorf("Encode: %.0f allocs/run, want <= 20", allocs)
	}
}

// fuzzInput renders a case in FuzzSizeBits's byte form.
func fuzzInput(tc sizeCase) []byte {
	b := []byte{byte(len(tc.levels)), 0}
	for _, l := range tc.levels {
		b = append(b, byte(l))
	}
	for _, k := range tc.keys {
		b = binary.BigEndian.AppendUint64(b, k)
	}
	return b
}

// FuzzSizeBits: for arbitrary level schedules and key multisets, sorted
// or not, SizeBits equals Encode's bit count and neither panics. Input:
// level count, a flags byte (bit 0: mask keys to the schedule's width),
// the level widths, then 8-byte big-endian keys.
func FuzzSizeBits(f *testing.F) {
	for _, tc := range sizeCases(f) {
		if len(tc.keys) <= 300 { // keep the seed corpus small
			f.Add(fuzzInput(tc))
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		n, flags := int(data[0]%12)+1, data[1]
		data = data[2:]
		if len(data) < n {
			return
		}
		levels, total := make([]int, 0, n), 0
		for _, b := range data[:n] {
			// Widths above 8 make one index node up to 64 Kbit: legal,
			// but they only slow the fuzzer down.
			w := int(b%8) + 1
			if total+w > 64 {
				break
			}
			levels = append(levels, w)
			total += w
		}
		data = data[n:]
		c, err := NewCodec(levels)
		if err != nil {
			t.Fatalf("NewCodec(%v): %v", levels, err)
		}
		var keys []zorder.Key
		for ; len(data) >= 8 && len(keys) < 512; data = data[8:] {
			k := binary.BigEndian.Uint64(data)
			if flags&1 != 0 && total < 64 {
				k &= 1<<uint(total) - 1
			}
			keys = append(keys, k)
		}
		if got, want := c.SizeBits(keys), c.Encode(keys).Bits; got != want {
			t.Fatalf("levels %v, %d keys: SizeBits = %d, Encode(..).Bits = %d", levels, len(keys), got, want)
		}
	})
}
