package quadtree

import (
	"slices"
	"testing"

	"sensjoin/internal/zorder"
)

// fuzzCodec derives a level schedule from shape: one to six levels of one
// to eight bits each.
func fuzzCodec(t *testing.T, shape uint32) *Codec {
	levels := make([]int, 1+shape%6)
	for i := range levels {
		levels[i] = 1 + int(shape>>(3+3*i))&7
	}
	c, err := NewCodec(levels)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// fuzzKeys reads keys of c.total bits from data, little-endian, as many
// whole keys as data holds.
func fuzzKeys(c *Codec, data []byte) []zorder.Key {
	width := (c.total + 7) / 8
	mask := zorder.Key(1)<<uint(c.total) - 1
	var keys []zorder.Key
	for ; len(data) >= width; data = data[width:] {
		var k zorder.Key
		for i := width - 1; i >= 0; i-- {
			k = k<<8 | zorder.Key(data[i])
		}
		keys = append(keys, k&mask)
	}
	return keys
}

// Decode never panics on arbitrary bytes and bit counts. On a canonical
// encoding it returns the normalized set; cut short by any number of bits
// it fails, and so it does with a whole byte or more of trailing input.
// Fewer than eight trailing bits are a byte-granular wire's padding and
// are accepted.
func FuzzDecode(f *testing.F) {
	f.Add(uint32(0x5a5a5), []byte{0x00}, 3)
	f.Add(uint32(0x12345), []byte{0xff, 0x0f, 0x33, 0x91, 0x00, 0x7e}, 40)
	f.Add(uint32(7), []byte{1, 2, 3, 4, 5, 6, 7, 8, 9}, -1)
	f.Add(uint32(0xfffff), []byte{}, 9)
	f.Fuzz(func(t *testing.T, shape uint32, data []byte, bits int) {
		c := fuzzCodec(t, shape)
		c.Decode(Encoded{Data: data, Bits: bits}) // must not panic

		keys := fuzzKeys(c, data)
		e := c.Encode(keys)
		got, err := c.Decode(e)
		if err != nil {
			t.Fatalf("Decode(Encode(%v)): %v", keys, err)
		}
		if want := NormalizeKeys(keys); !slices.Equal(got, want) {
			t.Fatalf("Decode(Encode(%v)) = %v, want %v", keys, got, want)
		}
		for cut := 1; cut < e.Bits; cut += 1 + cut/16 { // every cut of a short encoding
			short := Encoded{Data: e.Data[:(e.Bits-cut+7)/8], Bits: e.Bits - cut}
			if _, err := c.Decode(short); err == nil {
				t.Fatalf("%d bits cut off a %d-bit encoding decoded without error", cut, e.Bits)
			}
		}
		if e.Bits > 0 {
			long := Encoded{Data: append(slices.Clone(e.Data), 0xff), Bits: 8*e.ByteLen() + 8}
			if _, err := c.Decode(long); err == nil {
				t.Fatalf("a %d-bit encoding with a trailing byte decoded without error", e.Bits)
			}
		}
	})
}

// mergeUnion is the reference two-set union: a plain linear merge.
func mergeUnion(a, b []zorder.Key) []zorder.Key {
	out := make([]zorder.Key, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			out = append(out, a[i])
			i++
		case a[i] > b[j]:
			out = append(out, b[j])
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	out = append(out, a[i:]...)
	return append(out, b[j:]...)
}

// UnionAll equals a plain merge applied set by set, returns base itself
// exactly when the other sets add nothing to it (and otherwise a fresh,
// exactly sized set, or the destination it was given room in), and
// leaves its inputs alone.
func FuzzUnionAll(f *testing.F) {
	f.Add(uint8(1), []byte{})
	f.Add(uint8(3), []byte{0, 5, 1, 5, 2, 7, 0, 1, 1, 9})
	f.Add(uint8(12), []byte{0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7, 8, 8, 9, 9, 10, 10, 11, 11, 12})
	f.Fuzz(func(t *testing.T, k uint8, data []byte) {
		sets := make([][]zorder.Key, 1+int(k)%12)
		for ; len(data) >= 2; data = data[2:] {
			i := int(data[0]) % len(sets)
			sets[i] = append(sets[i], zorder.Key(data[1]))
		}
		for i := range sets {
			sets[i] = NormalizeKeys(sets[i])
		}
		before := make([][]zorder.Key, len(sets))
		for i, s := range sets {
			before[i] = slices.Clone(s)
		}
		want := sets[0]
		for _, s := range sets[1:] {
			want = mergeUnion(want, s)
		}
		got := UnionAll(nil, sets[0], sets[1:]...)
		if !slices.Equal(got, want) {
			t.Fatalf("UnionAll(%v) = %v, want %v", sets, got, want)
		}
		switch {
		case len(got) == len(sets[0]):
			if len(got) > 0 && &got[0] != &sets[0][0] {
				t.Fatal("nothing was added, yet base was copied")
			}
		case cap(got) != len(got):
			t.Fatalf("union of %d keys has capacity %d", len(got), cap(got))
		}
		// With a destination that has room the union is built in it.
		dst := make([]zorder.Key, 1, len(want)+1)
		into := UnionAll(dst, sets[0], sets[1:]...)
		if !slices.Equal(into, want) {
			t.Fatalf("UnionAll into a destination = %v, want %v", into, want)
		}
		if len(into) != len(sets[0]) && &into[0] != &dst[0] {
			t.Fatal("the union was not built in the destination that holds it")
		}
		for i := range sets {
			if !slices.Equal(sets[i], before[i]) {
				t.Fatalf("set %d changed from %v to %v", i, before[i], sets[i])
			}
		}
	})
}
