package compress

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"

	"sensjoin/internal/bitstream"
)

func TestBWTKnown(t *testing.T) {
	// Classic example: "banana" rotations sorted ->
	// abanan, anaban, ananab, banana, nabana, nanaba
	// last column: nnbaaa, primary row of "banana" = 3.
	last, primary := bwt([]byte("banana"))
	if string(last) != "nnbaaa" {
		t.Fatalf("bwt(banana) last = %q, want nnbaaa", last)
	}
	if primary != 3 {
		t.Fatalf("primary = %d, want 3", primary)
	}
	if got := unbwt(last, primary); string(got) != "banana" {
		t.Fatalf("unbwt = %q", got)
	}
}

func TestBWTEdgeCases(t *testing.T) {
	if last, _ := bwt(nil); last != nil {
		t.Fatal("bwt(nil) should be nil")
	}
	if out := unbwt(nil, 0); out != nil {
		t.Fatal("unbwt(nil) should be nil")
	}
	last, p := bwt([]byte{42})
	if len(last) != 1 || last[0] != 42 || p != 0 {
		t.Fatal("single byte bwt wrong")
	}
	// Periodic input (all rotations equal).
	in := bytes.Repeat([]byte{7}, 100)
	last, p = bwt(in)
	if got := unbwt(last, p); !bytes.Equal(got, in) {
		t.Fatal("periodic input roundtrip failed")
	}
	// Two-period input.
	in = bytes.Repeat([]byte{1, 2}, 50)
	last, p = bwt(in)
	if got := unbwt(last, p); !bytes.Equal(got, in) {
		t.Fatal("period-2 input roundtrip failed")
	}
}

func TestQuickBWTRoundtrip(t *testing.T) {
	f := func(data []byte) bool {
		last, p := bwt(data)
		return bytes.Equal(unbwt(last, p), data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestMTFKnown(t *testing.T) {
	// After MTF, a run of equal bytes becomes 0s.
	in := []byte{5, 5, 5, 5}
	out := bytes.Clone(in)
	mtfEncode(out)
	if out[0] != 5 || out[1] != 0 || out[2] != 0 || out[3] != 0 {
		t.Fatalf("mtf = %v", out)
	}
	if mtfDecode(out); !bytes.Equal(out, in) {
		t.Fatalf("mtf roundtrip = %v", out)
	}
}

func TestQuickMTFRoundtrip(t *testing.T) {
	f := func(data []byte) bool {
		code := bytes.Clone(data)
		mtfEncode(code)
		mtfDecode(code)
		return bytes.Equal(code, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestRLE0Known(t *testing.T) {
	// 3 zeros = bijective base-2 "11" = RUNA RUNA.
	syms := rle0Encode(nil, []byte{0, 0, 0})
	if len(syms) != 3 || syms[0] != symRunA || syms[1] != symRunA || syms[2] != symEOB {
		t.Fatalf("rle0(000) = %v", syms)
	}
	// A literal byte b becomes b+2.
	syms = rle0Encode(nil, []byte{9})
	if len(syms) != 2 || syms[0] != 11 || syms[1] != symEOB {
		t.Fatalf("rle0(9) = %v", syms)
	}
}

func TestQuickRLE0Roundtrip(t *testing.T) {
	f := func(data []byte, zeroRuns uint8) bool {
		// Salt with zero runs to exercise the run coder.
		in := append([]byte(nil), data...)
		for i := 0; i < int(zeroRuns); i++ {
			in = append(in, 0)
		}
		out, err := rle0Decode(nil, rle0Encode(nil, in), len(in))
		return err == nil && bytes.Equal(out, in)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestHuffmanRoundtrip(t *testing.T) {
	freq := make([]int, alphabetLen)
	freq[symEOB] = 1
	freq[10] = 100
	freq[11] = 50
	freq[200] = 1
	var enc huffEncoder
	enc.build(freq)
	lengths := enc.lengths
	if lengths[10] > lengths[200] {
		t.Fatal("frequent symbol must not have a longer code")
	}
	if lengths[12] != 0 {
		t.Fatal("unused symbol must have no code")
	}
	dec := newHuffDecoder(lengths[:])
	syms := []int{10, 11, 10, 200, 10, symEOB}
	w := newTestWriter()
	for _, s := range syms {
		enc.encode(w.w, s)
	}
	r := w.reader()
	for _, want := range syms {
		got, err := dec.decode(r)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("decoded %d, want %d", got, want)
		}
	}
}

func TestHuffmanSingleSymbol(t *testing.T) {
	freq := make([]int, alphabetLen)
	freq[symEOB] = 5
	var enc huffEncoder
	enc.build(freq)
	lengths := enc.lengths
	if lengths[symEOB] != 1 {
		t.Fatalf("single symbol length = %d, want 1", lengths[symEOB])
	}
	dec := newHuffDecoder(lengths[:])
	w := newTestWriter()
	enc.encode(w.w, symEOB)
	got, err := dec.decode(w.reader())
	if err != nil || got != symEOB {
		t.Fatalf("single-symbol roundtrip: %d, %v", got, err)
	}
}

func TestHuffmanLengthLimit(t *testing.T) {
	// Fibonacci-like frequencies force deep trees; lengths must be
	// clamped to maxCodeLen.
	freq := make([]int, alphabetLen)
	a, b := 1, 1
	for i := 0; i < 40; i++ {
		freq[i] = a
		a, b = b, a+b
		if a > 1<<40 {
			break
		}
	}
	var enc huffEncoder
	enc.build(freq)
	lengths := enc.lengths
	for sym, l := range lengths {
		if l > maxCodeLen {
			t.Fatalf("symbol %d has length %d > %d", sym, l, maxCodeLen)
		}
	}
	// Codes must still decode correctly.
	dec := newHuffDecoder(lengths[:])
	w := newTestWriter()
	for sym := 0; sym < 30; sym++ {
		if lengths[sym] > 0 {
			enc.encode(w.w, sym)
		}
	}
	r := w.reader()
	for sym := 0; sym < 30; sym++ {
		if lengths[sym] > 0 {
			got, err := dec.decode(r)
			if err != nil || got != sym {
				t.Fatalf("decode %d: got %d err %v", sym, got, err)
			}
		}
	}
}

func TestZlibRoundtrip(t *testing.T) {
	z := Zlib{}
	data := bytes.Repeat([]byte("sensor reading 23.4C "), 50)
	c := z.Compress(nil, data)
	if len(c) >= len(data) {
		t.Fatal("zlib should compress repetitive text")
	}
	got, err := z.Decompress(c)
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("zlib roundtrip failed: %v", err)
	}
	if _, err := z.Decompress([]byte("garbage")); err == nil {
		t.Fatal("zlib must reject garbage")
	}
}

func TestIdentity(t *testing.T) {
	id := Identity{}
	data := []byte{1, 2, 3}
	c := id.Compress(nil, data)
	if !bytes.Equal(c, data) {
		t.Fatal("identity changed data")
	}
	c[0] = 99
	if data[0] != 1 {
		t.Fatal("identity must copy, not alias")
	}
	got, err := id.Decompress([]byte{4, 5})
	if err != nil || !bytes.Equal(got, []byte{4, 5}) {
		t.Fatal("identity decompress wrong")
	}
}

func TestBWZRoundtripStructured(t *testing.T) {
	z := BWZ{}
	data := bytes.Repeat([]byte{0x17, 0x18, 0x17, 0x19, 0x17, 0x18}, 400)
	c := z.Compress(nil, data)
	if len(c) >= len(data) {
		t.Fatalf("bwz should compress structured data: %d -> %d", len(data), len(c))
	}
	got, err := z.Decompress(c)
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("bwz roundtrip failed: %v", err)
	}
}

func TestBWZSmallPayloadOverhead(t *testing.T) {
	// The experiment's point: on tiny payloads the block overhead makes
	// the output larger than the input.
	z := BWZ{}
	data := []byte{0x12, 0x34, 0x56, 0x78, 0x9a, 0xbc}
	c := z.Compress(nil, data)
	if len(c) <= len(data) {
		t.Fatalf("bwz on 6 bytes should expand, got %d bytes", len(c))
	}
	got, err := z.Decompress(c)
	if err != nil || !bytes.Equal(got, data) {
		t.Fatal("small payload roundtrip failed")
	}
}

func TestBWZEmpty(t *testing.T) {
	z := BWZ{}
	c := z.Compress(nil, nil)
	got, err := z.Decompress(c)
	if err != nil || len(got) != 0 {
		t.Fatalf("empty roundtrip: %v %v", got, err)
	}
}

func TestBWZMultiBlock(t *testing.T) {
	z := BWZ{BlockSize: 64}
	rng := rand.New(rand.NewSource(5))
	data := make([]byte, 1000)
	for i := range data {
		data[i] = byte(rng.Intn(8) * 16)
	}
	c := z.Compress(nil, data)
	got, err := z.Decompress(c)
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("multi-block roundtrip failed: %v", err)
	}
}

func TestBWZRejectsGarbage(t *testing.T) {
	z := BWZ{}
	if _, err := z.Decompress([]byte("nope")); err == nil {
		t.Fatal("bad magic must fail")
	}
	if _, err := z.Decompress(nil); err == nil {
		t.Fatal("empty input must fail")
	}
	// Truncated valid stream.
	c := z.Compress(nil, bytes.Repeat([]byte{1, 2, 3}, 100))
	if _, err := z.Decompress(c[:len(c)/2]); err == nil {
		t.Fatal("truncated stream must fail")
	}
}

func TestQuickBWZRoundtrip(t *testing.T) {
	z := BWZ{BlockSize: 256}
	f := func(data []byte) bool {
		got, err := z.Decompress(z.Compress(nil, data))
		return err == nil && bytes.Equal(got, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestCodecNames(t *testing.T) {
	for _, c := range []Codec{Zlib{}, BWZ{}, Identity{}} {
		if c.Name() == "" {
			t.Fatal("codec must have a name")
		}
	}
}

// testWriter wraps a bitstream writer for the huffman tests.
type testWriter struct{ w *bitstream.Writer }

func newTestWriter() *testWriter { return &testWriter{w: bitstream.NewWriter(256)} }

func (t *testWriter) reader() *bitstream.Reader {
	return bitstream.NewReader(t.w.Bytes(), t.w.Len())
}

// A header claiming a terabyte, a block longer than the block size and
// a zero run doubling past its block are refused before anything is
// allocated for them.
func TestBWZDecompressBoundsHeaders(t *testing.T) {
	huge := binary.AppendUvarint(append([]byte(nil), bwzMagic[:]...), 1<<40)
	huge = append(huge, 0, 0, 0)
	if _, err := (BWZ{}).Decompress(huge); err == nil {
		t.Fatal("a 2^40-byte length over 3 bytes of blocks must fail")
	}
	huge = binary.AppendUvarint(append([]byte(nil), bwzMagic[:]...), 1<<62)
	if _, err := (BWZ{}).Decompress(huge); err == nil {
		t.Fatal("a 2^62-byte length must fail")
	}
	long := (BWZ{BlockSize: 200}).Compress(nil, sensorPayload(150))
	if _, err := (BWZ{BlockSize: 100}).Decompress(long); err == nil {
		t.Fatal("a 150-byte block must fail under a 100-byte block size")
	}
	// 64 runB digits ask for 2^65 - 2 zeros.
	runs := make([]uint16, 64, 65)
	for i := range runs {
		runs[i] = symRunB
	}
	if _, err := rle0Decode(nil, append(runs, symEOB), 16384); err == nil {
		t.Fatal("a zero run past the block must fail")
	}
	if out, err := rle0Decode(nil, []uint16{symRunB, symRunA, symEOB}, 4); err != nil || len(out) != 4 {
		t.Fatalf("a run filling the block exactly: %v, %v", out, err)
	}
}

// FuzzBWZDecompress: no input panics, the allocation stays within what
// the input accounts for, and an accepted stream's output round-trips.
func FuzzBWZDecompress(f *testing.F) {
	for _, z := range []BWZ{{}, {BlockSize: 64}} {
		f.Add(z.Compress(nil, sensorPayload(300)))
		f.Add(z.Compress(nil, bytes.Repeat([]byte{0}, 200)))
		f.Add(z.Compress(nil, nil))
	}
	f.Add(binary.AppendUvarint(append([]byte(nil), bwzMagic[:]...), 1<<40))
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, z := range []BWZ{{}, {BlockSize: 64}} {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			out, err := z.Decompress(data)
			runtime.ReadMemStats(&after)
			// Each block of at least bwzMinBlockBytes holds at most a
			// block size: out's doublings, the block's MTF buffer and
			// its inverse (a byte and an int per byte) per block byte,
			// and 16 B of symbols per input byte.
			blocks := uint64(len(data)/bwzMinBlockBytes + 1)
			bound := 64<<10 + 16*uint64(len(data)) + 16*blocks*uint64(z.blockSize())
			if got := after.TotalAlloc - before.TotalAlloc; got > bound {
				t.Fatalf("block %d: %d B input allocated %d B, bound %d", z.blockSize(), len(data), got, bound)
			}
			if err != nil {
				continue
			}
			again, err := z.Decompress(z.Compress(nil, out))
			if err != nil || !bytes.Equal(again, out) {
				t.Fatalf("block %d: accepted output of %d B does not round-trip: %v", z.blockSize(), len(out), err)
			}
		}
	})
}
