package core

// The byte-level encodings behind the simulator's size accounting, kept
// as a test helper: the rounds charge messages by size alone, and these
// codecs are how TestAccountedSizesAreEncodable shows that every charged
// size is one a mote could put on the air.
//
// The accounting follows the paper: two bytes per attribute value
// (§IV-B), the quadtree bitstring for join-attribute sets (§V-C), and a
// fixed per-packet header. A fixed-point codec fits any attribute into
// exactly two bytes at its native sensor resolution, batch tuple
// marshalling has the length of the accounted message size, and the header
// allowance covers the per-message metadata (tuple counts, relation flags)
// that rides in the packet headers already charged by the radio model.

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// AttrCodec encodes one attribute as an unsigned 16-bit fixed-point
// value over [Min, Max] — the form an ADC reports.
type AttrCodec struct {
	Min, Max float64
}

// Step returns the codec's quantization step (the worst-case roundtrip
// error is half a step).
func (c AttrCodec) Step() float64 {
	return (c.Max - c.Min) / 65535
}

// Encode clamps v into [Min, Max] and returns its fixed-point code. NaN
// (a failed sensor reading) maps to code 0 deterministically — without
// the explicit check it would pass both clamps and reach the float→int
// conversion, whose result for NaN is implementation-defined in Go.
func (c AttrCodec) Encode(v float64) uint16 {
	if c.Max <= c.Min || math.IsNaN(v) {
		return 0
	}
	f := (v - c.Min) / (c.Max - c.Min)
	if f < 0 {
		f = 0
	}
	if f > 1 {
		f = 1
	}
	return uint16(math.Round(f * 65535))
}

// Decode returns the value at the center of the code's quantization
// cell.
func (c AttrCodec) Decode(code uint16) float64 {
	return c.Min + float64(code)/65535*(c.Max-c.Min)
}

// TupleCodec marshals complete tuples: one AttrCodec per attribute, two
// bytes per value, little endian.
type TupleCodec struct {
	Attrs []AttrCodec
}

// TupleBytes returns the wire size of one tuple.
func (t TupleCodec) TupleBytes() int { return 2 * len(t.Attrs) }

// MarshalTuple appends one tuple's encoding to dst.
func (t TupleCodec) MarshalTuple(dst []byte, vals []float64) ([]byte, error) {
	if len(vals) != len(t.Attrs) {
		return nil, fmt.Errorf("wire: %d values for %d attributes", len(vals), len(t.Attrs))
	}
	for i, v := range vals {
		dst = binary.LittleEndian.AppendUint16(dst, t.Attrs[i].Encode(v))
	}
	return dst, nil
}

// UnmarshalTuple decodes one tuple from the front of b.
func (t TupleCodec) UnmarshalTuple(b []byte) ([]float64, []byte, error) {
	need := t.TupleBytes()
	if len(b) < need {
		return nil, nil, fmt.Errorf("wire: tuple needs %d bytes, have %d", need, len(b))
	}
	vals := make([]float64, len(t.Attrs))
	for i := range t.Attrs {
		vals[i] = t.Attrs[i].Decode(binary.LittleEndian.Uint16(b[2*i:]))
	}
	return vals, b[need:], nil
}

// MarshalBatch encodes a batch of tuples; the result's length is exactly
// count * TupleBytes — the size the accounting charges for a
// complete-tuples message.
func (t TupleCodec) MarshalBatch(tuples [][]float64) ([]byte, error) {
	out := make([]byte, 0, len(tuples)*t.TupleBytes())
	for _, vals := range tuples {
		var err error
		out, err = t.MarshalTuple(out, vals)
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// UnmarshalBatch decodes count tuples.
func (t TupleCodec) UnmarshalBatch(b []byte, count int) ([][]float64, error) {
	out := make([][]float64, 0, count)
	for i := 0; i < count; i++ {
		vals, rest, err := t.UnmarshalTuple(b)
		if err != nil {
			return nil, err
		}
		out = append(out, vals)
		b = rest
	}
	if len(b) != 0 {
		return nil, fmt.Errorf("wire: %d trailing bytes after %d tuples", len(b), count)
	}
	return out, nil
}

// HeaderAllowance returns the per-message metadata bytes that ride in
// the packet headers the radio model already charges: a tuple count per
// message (one byte up to 255 tuples, two beyond — a single byte would
// silently misaccount larger batches) plus the relation-membership flags
// (nRelations bits per tuple, packed). The default 8-byte packet header
// leaves room for this next to source, type and sequence fields on
// messages of typical size; the allowance quantifies it for audits.
func HeaderAllowance(tupleCount, nRelations int) int {
	if tupleCount <= 0 {
		return 0
	}
	count := 1
	if tupleCount > 255 {
		count = 2
	}
	flagBits := tupleCount * nRelations
	return count + (flagBits+7)/8
}

func TestAttrCodecRoundtripPrecision(t *testing.T) {
	c := AttrCodec{Min: 0, Max: 40} // the temperature attribute
	step := c.Step()
	for i := 0; i < 2000; i++ {
		v := rand.New(rand.NewSource(int64(i))).Float64() * 40
		got := c.Decode(c.Encode(v))
		if math.Abs(got-v) > step/2+1e-12 {
			t.Fatalf("roundtrip error %g exceeds half step %g", math.Abs(got-v), step/2)
		}
	}
}

func TestAttrCodecClamps(t *testing.T) {
	c := AttrCodec{Min: 0, Max: 100}
	if c.Encode(-5) != 0 {
		t.Fatal("below range must clamp to 0")
	}
	if c.Encode(1e9) != 65535 {
		t.Fatal("above range must clamp to max code")
	}
	if c.Decode(0) != 0 || c.Decode(65535) != 100 {
		t.Fatal("boundary decode wrong")
	}
}

func TestAttrCodecDegenerate(t *testing.T) {
	c := AttrCodec{Min: 5, Max: 5}
	if c.Encode(7) != 0 {
		t.Fatal("degenerate range must encode to 0")
	}
}

func TestQuickAttrCodecMonotone(t *testing.T) {
	c := AttrCodec{Min: -50, Max: 150}
	f := func(a, b float64) bool {
		a = math.Mod(math.Abs(a), 200) - 50
		b = math.Mod(math.Abs(b), 200) - 50
		if a > b {
			a, b = b, a
		}
		return c.Encode(a) <= c.Encode(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func testTupleCodec() TupleCodec {
	return TupleCodec{Attrs: []AttrCodec{
		{Min: 0, Max: 40},     // temp
		{Min: 0, Max: 100},    // hum
		{Min: 0, Max: 1050},   // x
		{Min: 990, Max: 1040}, // pres
	}}
}

func TestBatchSizeMatchesAccounting(t *testing.T) {
	// The central claim: the marshalled batch is exactly the accounted
	// 2 bytes per attribute per tuple.
	tc := testTupleCodec()
	rng := rand.New(rand.NewSource(3))
	var tuples [][]float64
	for i := 0; i < 57; i++ {
		tuples = append(tuples, []float64{
			rng.Float64() * 40, rng.Float64() * 100,
			rng.Float64() * 1050, 990 + rng.Float64()*50,
		})
	}
	b, err := tc.MarshalBatch(tuples)
	if err != nil {
		t.Fatal(err)
	}
	if len(b) != 57*tc.TupleBytes() {
		t.Fatalf("batch = %d bytes, accounted %d", len(b), 57*tc.TupleBytes())
	}
	back, err := tc.UnmarshalBatch(b, 57)
	if err != nil {
		t.Fatal(err)
	}
	for i, vals := range back {
		for j, v := range vals {
			if math.Abs(v-tuples[i][j]) > tc.Attrs[j].Step()/2+1e-9 {
				t.Fatalf("tuple %d attr %d: %g vs %g", i, j, v, tuples[i][j])
			}
		}
	}
}

func TestMarshalErrors(t *testing.T) {
	tc := testTupleCodec()
	if _, err := tc.MarshalBatch([][]float64{{1, 2}}); err == nil {
		t.Fatal("wrong arity must fail")
	}
	if _, _, err := tc.UnmarshalTuple([]byte{1, 2, 3}); err == nil {
		t.Fatal("short buffer must fail")
	}
	b, _ := tc.MarshalBatch([][]float64{{1, 2, 3, 1000}})
	if _, err := tc.UnmarshalBatch(append(b, 0xff), 1); err == nil {
		t.Fatal("trailing bytes must fail")
	}
	if _, err := tc.UnmarshalBatch(b, 2); err == nil {
		t.Fatal("over-count must fail")
	}
}

func TestHeaderAllowance(t *testing.T) {
	if HeaderAllowance(0, 2) != 0 {
		t.Fatal("empty message needs no allowance")
	}
	// 4 tuples x 2 relations = 8 flag bits = 1 byte, + 1 count byte.
	if got := HeaderAllowance(4, 2); got != 2 {
		t.Fatalf("allowance = %d, want 2", got)
	}
	if got := HeaderAllowance(5, 2); got != 3 {
		t.Fatalf("allowance = %d, want 3", got)
	}
}

func TestEncodeNaNAndInf(t *testing.T) {
	c := AttrCodec{Min: -10, Max: 50}
	// NaN maps to code 0 deterministically: the float->int conversion it
	// would otherwise reach is implementation-defined in Go.
	if got := c.Encode(math.NaN()); got != 0 {
		t.Fatalf("Encode(NaN) = %d, want 0", got)
	}
	if got := c.Decode(c.Encode(math.NaN())); got != c.Min {
		t.Fatalf("NaN round-trip = %g, want Min %g", got, c.Min)
	}
	// Infinities clamp to the range edges and round-trip exactly.
	if got := c.Encode(math.Inf(1)); got != 65535 {
		t.Fatalf("Encode(+Inf) = %d, want 65535", got)
	}
	if got := c.Decode(c.Encode(math.Inf(1))); got != c.Max {
		t.Fatalf("+Inf round-trip = %g, want Max %g", got, c.Max)
	}
	if got := c.Encode(math.Inf(-1)); got != 0 {
		t.Fatalf("Encode(-Inf) = %d, want 0", got)
	}
	if got := c.Decode(c.Encode(math.Inf(-1))); got != c.Min {
		t.Fatalf("-Inf round-trip = %g, want Min %g", got, c.Min)
	}
	// A degenerate range stays deterministic too.
	if got := (AttrCodec{Min: 5, Max: 5}).Encode(math.NaN()); got != 0 {
		t.Fatalf("degenerate-range Encode(NaN) = %d, want 0", got)
	}
}

func TestHeaderAllowanceCountFieldBoundary(t *testing.T) {
	// The count field is 1 byte up to 255 tuples and 2 bytes beyond.
	flagBytes := func(tuples, rels int) int { return (tuples*rels + 7) / 8 }
	if got := HeaderAllowance(255, 1); got != 1+flagBytes(255, 1) {
		t.Fatalf("allowance(255) = %d, want %d", got, 1+flagBytes(255, 1))
	}
	if got := HeaderAllowance(256, 1); got != 2+flagBytes(256, 1) {
		t.Fatalf("allowance(256) = %d, want %d", got, 2+flagBytes(256, 1))
	}
	if got := HeaderAllowance(1000, 2); got != 2+flagBytes(1000, 2) {
		t.Fatalf("allowance(1000) = %d, want %d", got, 2+flagBytes(1000, 2))
	}
}
