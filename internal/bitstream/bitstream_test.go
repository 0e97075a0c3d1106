package bitstream

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestWriteReadSingleBits(t *testing.T) {
	w := NewWriter(16)
	bits := []uint{1, 0, 1, 1, 0, 0, 1, 0, 1, 1, 1}
	for _, b := range bits {
		w.WriteBit(b)
	}
	if w.Len() != len(bits) {
		t.Fatalf("Len = %d, want %d", w.Len(), len(bits))
	}
	r := NewReader(w.Bytes(), w.Len())
	for i, want := range bits {
		if got := r.ReadBit(); got != want {
			t.Fatalf("bit %d = %d, want %d", i, got, want)
		}
	}
	if r.Remaining() != 0 {
		t.Fatalf("Remaining = %d, want 0", r.Remaining())
	}
	if r.Err() != nil {
		t.Fatalf("unexpected error: %v", r.Err())
	}
}

func TestMSBFirstPacking(t *testing.T) {
	w := NewWriter(8)
	w.WriteBits(0b1011, 4)
	w.WriteBits(0b0110, 4)
	got := w.Bytes()
	if len(got) != 1 || got[0] != 0b10110110 {
		t.Fatalf("Bytes = %08b, want 10110110", got[0])
	}
}

func TestWriteBitsZeroWidth(t *testing.T) {
	w := NewWriter(0)
	w.WriteBits(123, 0)
	if w.Len() != 0 {
		t.Fatalf("Len = %d, want 0", w.Len())
	}
}

func TestReadPastEnd(t *testing.T) {
	w := NewWriter(4)
	w.WriteBits(0b101, 3)
	r := NewReader(w.Bytes(), w.Len())
	r.ReadBits(3)
	if r.Err() != nil {
		t.Fatalf("premature error: %v", r.Err())
	}
	if got := r.ReadBit(); got != 0 {
		t.Fatalf("past-end bit = %d, want 0", got)
	}
	if r.Err() != ErrShortRead {
		t.Fatalf("Err = %v, want ErrShortRead", r.Err())
	}
}

func TestNegativeNBitsUsesWholeBuffer(t *testing.T) {
	r := NewReader([]byte{0xff, 0x00}, -1)
	if r.Remaining() != 16 {
		t.Fatalf("Remaining = %d, want 16", r.Remaining())
	}
}

func TestReset(t *testing.T) {
	w := NewWriter(8)
	w.WriteBits(0xff, 8)
	w.Reset()
	if w.Len() != 0 || len(w.Bytes()) != 0 {
		t.Fatalf("Reset did not clear writer: len=%d bytes=%d", w.Len(), len(w.Bytes()))
	}
	w.WriteBits(0b1, 1)
	if w.Bytes()[0] != 0x80 {
		t.Fatalf("after reset, first bit = %08b, want 10000000", w.Bytes()[0])
	}
}

func TestWriteBitsPanicsOnBadWidth(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for n=65")
		}
	}()
	w := NewWriter(0)
	w.WriteBits(0, 65)
}

// Property: any sequence of (value, width) writes reads back identically.
func TestQuickRoundtrip(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		count := int(n%50) + 1
		widths := make([]int, count)
		vals := make([]uint64, count)
		w := NewWriter(64 * count)
		for i := 0; i < count; i++ {
			widths[i] = rng.Intn(65)
			vals[i] = rng.Uint64()
			if widths[i] < 64 {
				vals[i] &= (1 << uint(widths[i])) - 1
			}
			w.WriteBits(vals[i], widths[i])
		}
		r := NewReader(w.Bytes(), w.Len())
		for i := 0; i < count; i++ {
			if got := r.ReadBits(widths[i]); got != vals[i] {
				return false
			}
		}
		return r.Err() == nil && r.Remaining() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: bit length of the writer equals the sum of written widths and
// the packed bytes are its ceiling.
func TestQuickLengths(t *testing.T) {
	f := func(widths []uint8) bool {
		w := NewWriter(0)
		total := 0
		for _, ww := range widths {
			n := int(ww % 65)
			w.WriteBits(0, n)
			total += n
		}
		return w.Len() == total && len(w.Bytes()) == (total+7)/8
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Accumulator boundary cases: widths that straddle the pending-bit
// count, full 64-bit writes at every phase offset, and interleaved
// Bytes() calls that materialize the partial tail mid-stream.
func TestAccumulatorBoundaries(t *testing.T) {
	widths := []int{1, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64}
	for phase := 0; phase < 8; phase++ {
		w := NewWriter(0)
		var wantBits []uint
		push := func(v uint64, n int) {
			w.WriteBits(v, n)
			for i := n - 1; i >= 0; i-- {
				wantBits = append(wantBits, uint(v>>uint(i))&1)
			}
		}
		for i := 0; i < phase; i++ {
			push(uint64(i)&1, 1)
		}
		for i, n := range widths {
			v := uint64(0xDEADBEEFCAFEF00D) >> uint(i)
			push(v, n)
			// Materializing the tail mid-stream must not disturb
			// subsequent writes.
			if got := w.Bytes(); len(got) != (w.Len()+7)/8 {
				t.Fatalf("phase %d: Bytes len %d for %d bits", phase, len(got), w.Len())
			}
		}
		if w.Len() != len(wantBits) {
			t.Fatalf("phase %d: Len %d, want %d", phase, w.Len(), len(wantBits))
		}
		r := NewReader(w.Bytes(), w.Len())
		for i, want := range wantBits {
			if got := r.ReadBit(); got != want&1 {
				t.Fatalf("phase %d: bit %d = %d, want %d", phase, i, got, want&1)
			}
		}
		if r.Err() != nil {
			t.Fatalf("phase %d: %v", phase, r.Err())
		}
	}
}

// A full 64-bit value written at a non-zero phase exercises the 32-bit
// chunking path; the packed bytes must match the bit-at-a-time writer.
func TestWriteBits64MatchesBitAtATime(t *testing.T) {
	vals := []uint64{0, 1, 0xFFFFFFFFFFFFFFFF, 0x8000000000000001, 0x0123456789ABCDEF}
	for phase := 0; phase < 8; phase++ {
		fast := NewWriter(0)
		slow := NewWriter(0)
		for i := 0; i < phase; i++ {
			fast.WriteBit(1)
			slow.WriteBit(1)
		}
		for _, v := range vals {
			fast.WriteBits(v, 64)
			for i := 63; i >= 0; i-- {
				slow.WriteBit(uint(v>>uint(i)) & 1)
			}
		}
		if fast.Len() != slow.Len() {
			t.Fatalf("phase %d: Len %d vs %d", phase, fast.Len(), slow.Len())
		}
		fb, sb := fast.Bytes(), slow.Bytes()
		if len(fb) != len(sb) {
			t.Fatalf("phase %d: %d bytes vs %d", phase, len(fb), len(sb))
		}
		for i := range fb {
			if fb[i] != sb[i] {
				t.Fatalf("phase %d: byte %d: %02x vs %02x", phase, i, fb[i], sb[i])
			}
		}
	}
}

// Reset must clear the accumulator and the materialized tail.
func TestResetClearsAccumulator(t *testing.T) {
	w := NewWriter(0)
	w.WriteBits(0x7F, 7)
	_ = w.Bytes() // materialize the partial tail
	w.Reset()
	if w.Len() != 0 || len(w.Bytes()) != 0 {
		t.Fatalf("Reset left state: Len=%d Bytes=%d", w.Len(), len(w.Bytes()))
	}
	w.WriteBits(0xA5, 8)
	if got := w.Bytes(); len(got) != 1 || got[0] != 0xA5 {
		t.Fatalf("after Reset: got % x, want a5", got)
	}
}
