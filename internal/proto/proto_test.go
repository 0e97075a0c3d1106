package proto

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"reflect"
	"strings"
	"testing"
)

// roundTrip writes one frame, reads it back and decodes it into out.
func roundTrip(t *testing.T, kind byte, in, out any) {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteFrame(&buf, kind, in); err != nil {
		t.Fatalf("WriteFrame kind %d: %v", kind, err)
	}
	if got := int(binary.BigEndian.Uint32(buf.Bytes())); got != buf.Len()-4 {
		t.Fatalf("kind %d: length prefix %d, frame body %d", kind, got, buf.Len()-4)
	}
	gotKind, payload, err := ReadFrame(&buf)
	if err != nil || gotKind != kind {
		t.Fatalf("ReadFrame kind %d: got kind %d, err %v", kind, gotKind, err)
	}
	if buf.Len() != 0 {
		t.Fatalf("kind %d: %d bytes left after one frame", kind, buf.Len())
	}
	if err := Decode(payload, out); err != nil {
		t.Fatalf("Decode kind %d: %v", kind, err)
	}
}

func TestRoundTripJSONKinds(t *testing.T) {
	cases := []struct {
		kind byte
		in   any
		out  any
	}{
		{KindHello, Hello{Version: Version}, new(Hello)},
		{KindQuery, Query{ID: 7, Src: "SELECT A.temp FROM Sensors A ONCE", Method: "external", At: 1.5, Rounds: 3, Nodes: 400, Seed: 9, TraceID: "t-1"}, new(Query)},
		{KindCancel, Cancel{ID: 7}, new(Cancel)},
		{KindBye, struct{}{}, new(struct{})},
		{KindHelloOK, HelloOK{Version: Version, Session: 3, Nodes: 150, Seed: 1}, new(HelloOK)},
		{KindHeader, Header{ID: 7, Columns: []string{"A.temp", "B.hum"}, CacheHit: true, Shared: true, ClusterSize: 4, TraceID: "q-1-7-1", Sampled: true}, new(Header)},
		{KindEpochEnd, EpochEnd{ID: 7, Epoch: 2, Time: 20, RowCount: 513, Complete: true, Contributing: 31, Members: 40, ResponseTime: 3.648}, new(EpochEnd)},
		{KindDone, Done{ID: 7, Epochs: 3}, new(Done)},
		{KindError, Error{ID: 7, Code: CodeExec, Msg: "boom"}, new(Error)},
	}
	for _, c := range cases {
		roundTrip(t, c.kind, c.in, c.out)
		if got := reflect.ValueOf(c.out).Elem().Interface(); !reflect.DeepEqual(got, c.in) {
			t.Errorf("kind %d: got %+v, want %+v", c.kind, got, c.in)
		}
	}
}

// sameBits reports whether two tables hold the same cells bit for bit.
func sameBits(a, b [][]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if math.Float64bits(a[i][j]) != math.Float64bits(b[i][j]) {
				return false
			}
		}
	}
	return true
}

func TestRoundTripRows(t *testing.T) {
	negZero := math.Copysign(0, -1)
	payloadNaN := math.Float64frombits(0x7ff8dead0000beef)
	cases := []struct {
		name string
		in   Rows
	}{
		{"special values", Rows{ID: 1 << 40, Epoch: 3, Total: 9000, Rows: [][]float64{
			{math.NaN(), math.Inf(1), math.Inf(-1)},
			{negZero, payloadNaN, math.SmallestNonzeroFloat64},
			{0, -math.MaxFloat64, 21.5},
		}}},
		{"one cell", Rows{ID: 1, Rows: [][]float64{{42}}}},
		{"no rows, nil", Rows{ID: 2, Epoch: 1}},
		{"no rows, empty", Rows{ID: 2, Rows: [][]float64{}}},
	}
	for _, c := range cases {
		for _, msg := range []any{c.in, &c.in} { // by value and by pointer
			var got Rows
			roundTrip(t, KindRows, msg, &got)
			if got.ID != c.in.ID || got.Epoch != c.in.Epoch || got.Total != c.in.Total || !sameBits(got.Rows, c.in.Rows) {
				t.Errorf("%s: got %+v, want %+v", c.name, got, c.in)
			}
		}
	}

	// A named row type takes the same path and produces the same bytes.
	type row []float64
	var a, b bytes.Buffer
	if err := WriteFrame(&a, KindRows, RowsOf[row]{ID: 5, Total: 2, Rows: []row{{1, 2}, {3, 4}}}); err != nil {
		t.Fatal(err)
	}
	if err := WriteFrame(&b, KindRows, Rows{ID: 5, Total: 2, Rows: [][]float64{{1, 2}, {3, 4}}}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Errorf("RowsOf[row] and Rows encode differently:\n%x\n%x", a.Bytes(), b.Bytes())
	}
}

// Decode reuses the capacity of the destination's Rows for the row
// headers, as encoding/json does; the client's Stream.Next relies on it.
func TestDecodeRowsReusesCapacity(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, KindRows, Rows{ID: 1, Rows: [][]float64{{1}, {2}, {3}}}); err != nil {
		t.Fatal(err)
	}
	payload := buf.Bytes()[5:]
	table := make([][]float64, 2, 8)
	r := Rows{Rows: table[2:]}
	if err := Decode(payload, &r); err != nil {
		t.Fatal(err)
	}
	if table = table[:5]; &table[2] != &r.Rows[0] || table[4][0] != 3 {
		t.Errorf("row headers were not written into the spare capacity: %v", table)
	}
	small := Rows{Rows: make([][]float64, 0, 1)}
	if err := Decode(payload, &small); err != nil || len(small.Rows) != 3 {
		t.Errorf("decode into too small a destination: %v, %v", small.Rows, err)
	}
}

func TestEncodeRejects(t *testing.T) {
	wide := make([]float64, MaxFrame/8)
	cases := []struct {
		name string
		kind byte
		msg  any
	}{
		{"ragged rows", KindRows, Rows{ID: 1, Rows: [][]float64{{1, 2}, {3}}}},
		{"zero-width rows", KindRows, Rows{ID: 1, Rows: [][]float64{{}, {}}}},
		{"negative epoch", KindRows, Rows{ID: 1, Epoch: -1}},
		{"rows over MaxFrame", KindRows, Rows{ID: 1, Rows: [][]float64{wide}}},
		{"Rows under another kind", KindHeader, Rows{ID: 1}},
		{"another message under KindRows", KindRows, Header{ID: 1}},
		{"JSON cannot render NaN", KindEpochEnd, EpochEnd{ID: 1, Time: math.NaN()}},
	}
	for _, c := range cases {
		var buf bytes.Buffer
		err := WriteFrame(&buf, c.kind, c.msg)
		var enc *EncodeError
		if !errors.As(err, &enc) || enc.Kind != c.kind {
			t.Errorf("%s: got %v, want an *EncodeError of kind %d", c.name, err, c.kind)
		}
		if buf.Len() != 0 {
			t.Errorf("%s: %d bytes written by a failed encode", c.name, buf.Len())
		}
	}
}

// errorFrameOfSize returns an Error message whose frame body (kind +
// payload) is exactly n bytes.
func errorFrameOfSize(t *testing.T, n int) Error {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteFrame(&buf, KindError, Error{}); err != nil {
		t.Fatal(err)
	}
	return Error{Msg: strings.Repeat("x", n-(buf.Len()-4))}
}

func TestMaxFrameBoundary(t *testing.T) {
	var buf bytes.Buffer
	for _, n := range []int{MaxFrame - 1, MaxFrame} {
		buf.Reset()
		if err := WriteFrame(&buf, KindError, errorFrameOfSize(t, n)); err != nil {
			t.Fatalf("frame of %d bytes: %v", n, err)
		}
		if buf.Len() != 4+n {
			t.Fatalf("frame of %d bytes came out as %d", n, buf.Len()-4)
		}
		// Read back through the grow-as-it-arrives path, intact.
		_, payload, err := ReadFrame(&buf)
		var e Error
		if err != nil || len(payload) != n-1 || Decode(payload, &e) != nil || strings.Trim(e.Msg, "x") != "" {
			t.Fatalf("reading a frame of %d bytes: payload %d, err %v", n, len(payload), err)
		}
	}
	buf.Reset()
	var enc *EncodeError
	if err := WriteFrame(&buf, KindError, errorFrameOfSize(t, MaxFrame+1)); !errors.As(err, &enc) || buf.Len() != 0 {
		t.Errorf("frame of MaxFrame+1 bytes: err %v, %d bytes written", err, buf.Len())
	}

	// The reader refuses the length before it allocates or reads a body.
	for _, n := range []uint32{0, MaxFrame + 1, math.MaxUint32} {
		var hdr [4]byte
		binary.BigEndian.PutUint32(hdr[:], n)
		if _, _, err := ReadFrame(bytes.NewReader(hdr[:])); err == nil || errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			t.Errorf("length %d: got %v, want an out-of-range error", n, err)
		}
	}
	// A truncated body is an I/O error, not a short frame.
	var hdr [6]byte
	binary.BigEndian.PutUint32(hdr[:], 100)
	if _, _, err := ReadFrame(bytes.NewReader(hdr[:])); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("truncated body: got %v, want io.ErrUnexpectedEOF", err)
	}
}

// A connection's reader keeps its body between frames, but not one that
// a single huge frame grew: the next read lets it go, as WriteFrame does
// with its pooled buffers.
func TestFrameReaderReleasesHugeBody(t *testing.T) {
	var buf bytes.Buffer
	for _, n := range []int{2 * maxPooledBuf, 100, 100} {
		if err := WriteFrame(&buf, KindError, errorFrameOfSize(t, n)); err != nil {
			t.Fatal(err)
		}
	}
	fr := NewFrameReader(&buf)
	for i, want := range []int{2 * maxPooledBuf, 100, 100} {
		_, payload, err := fr.Next()
		if err != nil || len(payload) != want-1 {
			t.Fatalf("frame %d: %d payload bytes, err %v", i, len(payload), err)
		}
		if i > 0 && cap(fr.body) > maxPooledBuf {
			t.Errorf("after frame %d the reader still holds %d bytes", i, cap(fr.body))
		}
	}
}

// rowsPayload hand-builds a KindRows payload with an arbitrary header.
func rowsPayload(id int64, epoch, total, nrows, ncols uint32, cells int) []byte {
	p := make([]byte, rowsHeaderLen+8*cells)
	binary.BigEndian.PutUint64(p, uint64(id))
	binary.BigEndian.PutUint32(p[8:], epoch)
	binary.BigEndian.PutUint32(p[12:], total)
	binary.BigEndian.PutUint32(p[16:], nrows)
	binary.BigEndian.PutUint32(p[20:], ncols)
	return p
}

func TestDecodeRowsRejects(t *testing.T) {
	const max = math.MaxUint32
	cases := []struct {
		name    string
		payload []byte
	}{
		{"empty", nil},
		{"short header", make([]byte, rowsHeaderLen-1)},
		{"rows without cells", rowsPayload(1, 0, 0, 2, 3, 0)},
		{"cells without rows", rowsPayload(1, 0, 0, 0, 0, 1)},
		{"one cell short", rowsPayload(1, 0, 0, 2, 3, 5)},
		{"one cell over", rowsPayload(1, 0, 0, 2, 3, 7)},
		{"partial cell", rowsPayload(1, 0, 0, 1, 1, 1)[:rowsHeaderLen+7]},
		{"zero-width rows", rowsPayload(1, 0, 0, max, 0, 0)},
		{"columns without rows", rowsPayload(1, 0, 0, 0, 3, 0)},
		{"product wraps uint32 to 0 cells", rowsPayload(1, 0, 0, 1<<31, 2, 0)},
		{"product wraps uint32 to 4 cells", rowsPayload(1, 0, 0, 1<<31+2, 2, 4)},
		{"huge square", rowsPayload(1, 0, 0, max, max, 1)},
	}
	for _, c := range cases {
		r := Rows{ID: 99}
		if err := Decode(c.payload, &r); err == nil {
			t.Errorf("%s: decoded to %d rows", c.name, len(r.Rows))
		}
		if r.ID != 99 || r.Rows != nil {
			t.Errorf("%s: a rejected payload changed the destination: %+v", c.name, r)
		}
	}
}

func TestPeekID(t *testing.T) {
	frames := []struct {
		kind byte
		msg  any
		want int64
	}{
		{KindHeader, Header{ID: 11, Columns: []string{"a"}}, 11},
		{KindRows, Rows{ID: 1<<40 + 3, Rows: [][]float64{{1, 2}}}, 1<<40 + 3},
		{KindRows, Rows{ID: 12}, 12},
		{KindEpochEnd, EpochEnd{ID: 13}, 13},
		{KindDone, Done{ID: 14}, 14},
		{KindError, Error{ID: 15, Code: CodeExec}, 15},
		{KindError, Error{Code: CodeProto}, 0}, // session-level
	}
	for _, f := range frames {
		var buf bytes.Buffer
		if err := WriteFrame(&buf, f.kind, f.msg); err != nil {
			t.Fatal(err)
		}
		kind, payload, _ := ReadFrame(&buf)
		if id, err := PeekID(kind, payload); err != nil || id != f.want {
			t.Errorf("kind %d: PeekID = %d, %v; want %d", f.kind, id, err, f.want)
		}
	}
	if _, err := PeekID(KindRows, make([]byte, 7)); err == nil {
		t.Error("PeekID accepted a Rows payload shorter than its header")
	}
	if _, err := PeekID(KindDone, []byte("{")); err == nil {
		t.Error("PeekID accepted malformed JSON")
	}
}

// table builds an nrows×ncols table of distinct finite values.
func table(nrows, ncols int) [][]float64 {
	rows := make([][]float64, nrows)
	for i := range rows {
		rows[i] = make([]float64, ncols)
		for j := range rows[i] {
			rows[i][j] = float64(i) + float64(j)/16
		}
	}
	return rows
}

// The steady-state cost of a Rows frame is pinned: the encoder works in
// a pooled buffer, a connection's reader in the body it owns, the
// decoder makes one cell slab and one row-header slice, and routing a
// frame reads eight bytes.
func TestRowsFrameAllocs(t *testing.T) {
	var msg any = &Rows{ID: 1, Total: 512, Rows: table(512, 12)}
	var buf bytes.Buffer
	if err := WriteFrame(&buf, KindRows, msg); err != nil {
		t.Fatal(err)
	}
	payload := buf.Bytes()[5:]

	rd := bytes.NewReader(buf.Bytes())
	fr := NewFrameReader(rd)
	if n := testing.AllocsPerRun(100, func() { // the warm-up call sizes the body
		rd.Reset(buf.Bytes())
		if kind, got, err := fr.Next(); kind != KindRows || len(got) != len(payload) || err != nil {
			t.Fatal(kind, len(got), err)
		}
	}); n != 0 {
		t.Errorf("reading a 512×12 Rows frame into a warm FrameReader: %.0f allocs, want 0", n)
	}

	if n := testing.AllocsPerRun(100, func() {
		if err := WriteFrame(io.Discard, KindRows, msg); err != nil {
			t.Fatal(err)
		}
	}); n != 0 && !raceEnabled {
		t.Errorf("encoding a 512×12 Rows frame: %.0f allocs, want 0", n)
	}
	var r Rows
	if n := testing.AllocsPerRun(100, func() {
		r.Rows = nil
		if err := Decode(payload, &r); err != nil {
			t.Fatal(err)
		}
	}); n > 2 {
		t.Errorf("decoding a 512×12 Rows frame: %.0f allocs, want <= 2", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		if id, err := PeekID(KindRows, payload); id != 1 || err != nil {
			t.Fatal(id, err)
		}
	}); n != 0 {
		t.Errorf("PeekID on a Rows payload: %.0f allocs, want 0", n)
	}
}

var benchShapes = []struct {
	name         string
	nrows, ncols int
}{{"512x12", 512, 12}, {"8x3", 8, 3}}

func BenchmarkRowsEncode(b *testing.B) {
	for _, s := range benchShapes {
		b.Run(s.name, func(b *testing.B) {
			var msg any = &Rows{ID: 1, Total: s.nrows, Rows: table(s.nrows, s.ncols)}
			b.SetBytes(int64(rowsHeaderLen + 8*s.nrows*s.ncols))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := WriteFrame(io.Discard, KindRows, msg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

var sinkRows Rows

func BenchmarkRowsDecode(b *testing.B) {
	for _, s := range benchShapes {
		b.Run(s.name, func(b *testing.B) {
			var buf bytes.Buffer
			if err := WriteFrame(&buf, KindRows, Rows{ID: 1, Total: s.nrows, Rows: table(s.nrows, s.ncols)}); err != nil {
				b.Fatal(err)
			}
			frame := buf.Bytes()
			rd := bytes.NewReader(frame)
			fr := NewFrameReader(rd)
			b.SetBytes(int64(len(frame)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rd.Reset(frame)
				_, payload, err := fr.Next()
				if err != nil {
					b.Fatal(err)
				}
				sinkRows.Rows = nil
				if err := Decode(payload, &sinkRows); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
