package quadtree

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"sensjoin/internal/zorder"
)

// testCodec returns a codec over the paper's experiment grid
// (2 flag bits; temp 9 bits, x/y 11 bits each) plus the grid itself.
func testCodec(t *testing.T) (*Codec, *zorder.Grid) {
	t.Helper()
	temp, err := zorder.NewDim("temp", 0, 40, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	x, err := zorder.NewDim("x", 0, 1050, 1)
	if err != nil {
		t.Fatal(err)
	}
	y, err := zorder.NewDim("y", 0, 1050, 1)
	if err != nil {
		t.Fatal(err)
	}
	g, err := zorder.NewGrid(2, []zorder.Dim{temp, x, y})
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewCodec(g.Levels())
	if err != nil {
		t.Fatal(err)
	}
	return c, g
}

func TestNewCodecValidation(t *testing.T) {
	if _, err := NewCodec(nil); err == nil {
		t.Fatal("empty schedule must fail")
	}
	if _, err := NewCodec([]int{0}); err == nil {
		t.Fatal("zero-width level must fail")
	}
	if _, err := NewCodec([]int{17}); err == nil {
		t.Fatal("over-wide level must fail")
	}
	if _, err := NewCodec([]int{16, 16, 16, 16, 16}); err == nil {
		t.Fatal(">64 total bits must fail")
	}
	c, err := NewCodec([]int{2, 3, 3, 2})
	if err != nil {
		t.Fatal(err)
	}
	if c.total != 10 {
		t.Fatalf("total key bits = %d, want 10", c.total)
	}
}

func TestEmptySet(t *testing.T) {
	c, _ := testCodec(t)
	e := c.Encode(nil)
	if !e.Empty() || e.ByteLen() != 0 {
		t.Fatalf("empty set encoding = %+v", e)
	}
	keys, err := c.Decode(e)
	if err != nil || len(keys) != 0 {
		t.Fatalf("decode empty: %v %v", keys, err)
	}
}

func TestSinglePointRoundtrip(t *testing.T) {
	c, g := testCodec(t)
	k := g.Encode(0b10, []float64{23.2, 100, 200})
	e := c.Encode([]zorder.Key{k})
	// A single point lists as '1' + 33 suffix bits + '0' = 35 bits.
	if e.Bits != 35 {
		t.Fatalf("single point encoding = %d bits, want 35", e.Bits)
	}
	keys, err := c.Decode(e)
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != 1 || keys[0] != k {
		t.Fatalf("roundtrip = %v, want [%d]", keys, k)
	}
}

func TestDuplicatesRemoved(t *testing.T) {
	c, g := testCodec(t)
	k := g.Encode(0b11, []float64{20, 50, 50})
	e := c.Encode([]zorder.Key{k, k, k})
	keys, err := c.Decode(e)
	if err != nil || len(keys) != 1 {
		t.Fatalf("decoded %v, %v; want one key (set semantics)", keys, err)
	}
}

func randomKeys(g *zorder.Grid, rng *rand.Rand, n int, clustered bool) []zorder.Key {
	keys := make([]zorder.Key, n)
	var baseT, baseX, baseY float64
	for i := range keys {
		if clustered {
			if i%24 == 0 {
				baseT = rng.Float64() * 40
				baseX = rng.Float64() * 1000
				baseY = rng.Float64() * 1000
			}
			keys[i] = g.Encode(0b11, []float64{
				baseT + rng.Float64()*0.5,
				baseX + rng.Float64()*40,
				baseY + rng.Float64()*40,
			})
		} else {
			keys[i] = g.Encode(uint64(1+rng.Intn(3)), []float64{
				rng.Float64() * 40, rng.Float64() * 1050, rng.Float64() * 1050,
			})
		}
	}
	return keys
}

func TestQuickEncodeDecodeRoundtrip(t *testing.T) {
	c, g := testCodec(t)
	f := func(seed int64, n uint8, clustered bool) bool {
		rng := rand.New(rand.NewSource(seed))
		keys := randomKeys(g, rng, int(n)+1, clustered)
		want := NormalizeKeys(keys)
		e := c.Encode(keys)
		got, err := c.Decode(e)
		if err != nil {
			return false
		}
		return reflect.DeepEqual(got, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestCanonicalEncoding(t *testing.T) {
	c, g := testCodec(t)
	rng := rand.New(rand.NewSource(11))
	keys := randomKeys(g, rng, 300, true)
	e1 := c.Encode(keys)
	// Shuffle and re-encode: identical bitstring.
	shuffled := append([]zorder.Key(nil), keys...)
	rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	e2 := c.Encode(shuffled)
	if e1.Bits != e2.Bits || !reflect.DeepEqual(e1.Data, e2.Data) {
		t.Fatal("encoding must be canonical (order independent)")
	}
	// Decode + re-encode: identical bitstring.
	dec, err := c.Decode(e1)
	if err != nil {
		t.Fatal(err)
	}
	e3 := c.Encode(dec)
	if !reflect.DeepEqual(e1, e3) {
		t.Fatal("decode/encode must be idempotent")
	}
}

// The set algebra the rounds run on sorted key slices, against map
// references.
func TestQuickUnionIntersect(t *testing.T) {
	_, g := testCodec(t)
	f := func(seed int64, na, nb uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		a := NormalizeKeys(randomKeys(g, rng, int(na%60)+1, true))
		b := NormalizeKeys(randomKeys(g, rng, int(nb%60)+1, true))
		if nb%4 == 0 {
			b = append(b[:0:0], a[len(a)/2:]...) // force an overlap
		}
		inA := map[zorder.Key]bool{}
		for _, k := range a {
			inA[k] = true
		}
		either, both := map[zorder.Key]bool{}, map[zorder.Key]bool{}
		for _, k := range a {
			either[k] = true
		}
		for _, k := range b {
			either[k] = true
			if inA[k] {
				both[k] = true
			}
		}
		sameSet := func(got []zorder.Key, want map[zorder.Key]bool) bool {
			if len(got) != len(want) {
				return false
			}
			for i, k := range got {
				if !want[k] || (i > 0 && got[i-1] >= k) {
					return false
				}
			}
			return true
		}
		return sameSet(UnionKeys(nil, a, b), either) && sameSet(IntersectKeys(nil, a, b), both)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestUnionWithEmpty(t *testing.T) {
	_, g := testCodec(t)
	keys := NormalizeKeys(randomKeys(g, rand.New(rand.NewSource(3)), 20, false))
	if !reflect.DeepEqual(UnionKeys(nil, keys, nil), keys) || !reflect.DeepEqual(UnionKeys(nil, nil, keys), keys) {
		t.Fatal("union with empty must be identity")
	}
	if len(IntersectKeys(nil, keys, nil)) != 0 || len(IntersectKeys(nil, nil, keys)) != 0 {
		t.Fatal("intersection with empty must be empty")
	}
}

func TestContainsAndInsert(t *testing.T) {
	_, g := testCodec(t)
	keys := NormalizeKeys(randomKeys(g, rand.New(rand.NewSource(5)), 50, true))
	for _, k := range keys {
		if !ContainsKey(keys, k) {
			t.Fatalf("ContainsKey(%d) = false for a member", k)
		}
	}
	probe := g.Encode(0b11, []float64{39.9, 1049, 3})
	if ContainsKey(keys, probe) {
		t.Skip("probe collided with random keys")
	}
	with := UnionKeys(nil, keys, []zorder.Key{probe})
	if !ContainsKey(with, probe) || len(with) != len(keys)+1 {
		t.Fatalf("inserting an absent key gave %d keys from %d", len(with), len(keys))
	}
	if again := UnionKeys(nil, with, []zorder.Key{probe}); len(again) != len(with) {
		t.Fatal("inserting a member must not grow the set")
	}
}

// The headline property (paper §VI-B): for spatially correlated keys the
// quadtree encoding is substantially smaller than listing raw keys, and
// for the paper's experiment roughly half the raw join-attribute bytes.
func TestCompressionBeatsRawOnClusteredData(t *testing.T) {
	c, g := testCodec(t)
	rng := rand.New(rand.NewSource(9))
	keys := NormalizeKeys(randomKeys(g, rng, 1500, true))
	e := c.Encode(keys)
	rawListBits := len(keys) * (c.total + 2) // '1' + suffix each, '0' once
	if e.Bits >= rawListBits {
		t.Fatalf("tree (%d bits) not smaller than flat list (%d bits)", e.Bits, rawListBits)
	}
	// Against the raw 2-bytes-per-attribute wire format (3 attrs = 6 B):
	rawBytes := len(keys) * 2 * 3
	if e.ByteLen()*10 > rawBytes*8 {
		t.Fatalf("tree %d B vs raw %d B: expected clearly below 80%%", e.ByteLen(), rawBytes)
	}
}

func TestUncorrelatedStillBounded(t *testing.T) {
	// Even on uncorrelated keys the encoding must not exceed the flat
	// list by more than the single root index node.
	c, g := testCodec(t)
	rng := rand.New(rand.NewSource(13))
	keys := NormalizeKeys(randomKeys(g, rng, 500, false))
	e := c.Encode(keys)
	rawListBits := len(keys)*(c.total+2) + 1
	if e.Bits > rawListBits {
		t.Fatalf("tree (%d bits) exceeds flat list (%d bits)", e.Bits, rawListBits)
	}
}

func TestDecodeErrors(t *testing.T) {
	c, _ := testCodec(t)
	// Truncated stream: an index node marker with nothing behind it.
	bad := Encoded{Data: []byte{0x00}, Bits: 3}
	if _, err := c.Decode(bad); err == nil {
		t.Fatal("truncated stream must fail")
	}
	// An index node with an empty presence mask is invalid.
	bad2 := Encoded{Data: []byte{0x00}, Bits: 5} // '0' + mask 0000
	if _, err := c.Decode(bad2); err == nil {
		t.Fatal("empty mask must fail")
	}
}

func TestKeySetHelpers(t *testing.T) {
	a := []zorder.Key{1, 3, 5, 7}
	b := []zorder.Key{3, 4, 7, 9}
	if got := UnionKeys(nil, a, b); !reflect.DeepEqual(got, []zorder.Key{1, 3, 4, 5, 7, 9}) {
		t.Fatalf("UnionKeys = %v", got)
	}
	if got := IntersectKeys(nil, a, b); !reflect.DeepEqual(got, []zorder.Key{3, 7}) {
		t.Fatalf("IntersectKeys = %v", got)
	}
	if !ContainsKey(a, 5) || ContainsKey(a, 6) {
		t.Fatal("ContainsKey wrong")
	}
	if got := NormalizeKeys([]zorder.Key{5, 1, 5, 3, 1}); !reflect.DeepEqual(got, []zorder.Key{1, 3, 5}) {
		t.Fatalf("NormalizeKeys = %v", got)
	}
	if NormalizeKeys(nil) != nil {
		t.Fatal("NormalizeKeys(nil) should be nil")
	}
}
