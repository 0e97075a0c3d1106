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

func TestRoundTripControlKinds(t *testing.T) {
	cases := []struct {
		kind byte
		in   any
		out  any
	}{
		{KindHello, Hello{Version: Version}, new(Hello)},
		{KindQuery, Query{ID: 7, Src: "SELECT A.temp FROM Sensors A ONCE", Method: "external", At: 1.5, Rounds: 3, Nodes: 400, Seed: 9, TraceID: "t-1"}, new(Query)},
		{KindQuery, Query{ID: 1<<62 + 1, Src: "SELECT Ä.temp FROM Sensors Ä ONCE", Rounds: -1, Seed: -5}, new(Query)},
		{KindCancel, Cancel{ID: 7}, new(Cancel)},
		{KindBye, Bye{}, new(Bye)},
		{KindHelloOK, HelloOK{Version: Version, Session: 3, Nodes: 150, Seed: 1}, new(HelloOK)},
		{KindHeader, Header{ID: 7, Columns: []string{"A.temp", "B.hum"}, CacheHit: true, Shared: true, ClusterSize: 4, TraceID: "q-1-7-1", Sampled: true}, new(Header)},
		{KindHeader, Header{ID: 8, Columns: []string{"", "x"}}, new(Header)},
		{KindHeader, Header{ID: 9}, new(Header)},
		{KindEpochEnd, EpochEnd{ID: 7, Epoch: 2, Time: 20, RowCount: 513, Complete: true, Contributing: 31, Members: 40, ResponseTime: 3.648}, new(EpochEnd)},
		{KindDone, Done{ID: 7, Epochs: 3}, new(Done)},
		{KindError, Error{ID: 7, Code: CodeExec, Msg: "boom"}, new(Error)},
		{KindError, Error{Code: CodeProto}, new(Error)},
	}
	for _, c := range cases {
		roundTrip(t, c.kind, c.in, c.out)
		if got := reflect.ValueOf(c.out).Elem().Interface(); !reflect.DeepEqual(got, c.in) {
			t.Errorf("kind %d: got %+v, want %+v", c.kind, got, c.in)
		}
	}
}

// Floats travel as their IEEE-754 bits: NaN (payload included), ±Inf
// and -0 arrive exactly as sent, which JSON could not carry at all.
func TestRoundTripSpecialFloats(t *testing.T) {
	payloadNaN := math.Float64frombits(0x7ff8dead0000beef)
	for _, x := range []float64{math.NaN(), payloadNaN, math.Inf(1), math.Inf(-1), math.Copysign(0, -1)} {
		var q Query
		roundTrip(t, KindQuery, &Query{ID: 1, Src: "s", At: x}, &q)
		var e EpochEnd
		roundTrip(t, KindEpochEnd, &EpochEnd{ID: 1, Time: x, ResponseTime: -x}, &e)
		want, neg := math.Float64bits(x), math.Float64bits(-x)
		if math.Float64bits(q.At) != want || math.Float64bits(e.Time) != want || math.Float64bits(e.ResponseTime) != neg {
			t.Errorf("%v: Query.At %#x, EpochEnd.Time %#x, ResponseTime %#x; want %#x, %#x, %#x",
				x, math.Float64bits(q.At), math.Float64bits(e.Time), math.Float64bits(e.ResponseTime), want, want, neg)
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
		{"a message under a kind not its own", KindDone, Header{ID: 1}},
		{"a pointer under a kind not its own", KindCancel, &Done{ID: 1}},
		{"a value that is no message", KindBye, struct{}{}},
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
		{KindQuery, Query{ID: 10, Src: "q"}, 10},
		{KindCancel, Cancel{ID: 1 << 50}, 1 << 50},
		{KindHeader, Header{ID: 11, Columns: []string{"a"}}, 11},
		{KindRows, Rows{ID: 1<<40 + 3, Rows: [][]float64{{1, 2}}}, 1<<40 + 3},
		{KindRows, Rows{ID: 12}, 12},
		{KindEpochEnd, EpochEnd{ID: 13}, 13},
		{KindDone, Done{ID: 14}, 14},
		{KindError, Error{ID: 15, Code: CodeExec}, 15},
		{KindError, Error{Code: CodeProto}, 0}, // session-level
		{KindHello, Hello{Version: Version}, 0},
		{KindHelloOK, HelloOK{Version: Version, Session: 16}, 0},
		{KindBye, Bye{}, 0},
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
		if n := testing.AllocsPerRun(10, func() { PeekID(kind, payload) }); n != 0 {
			t.Errorf("kind %d: PeekID allocates %.0f times", f.kind, n)
		}
	}
	// The session kinds carry no ID: PeekID does not look at their bytes.
	if id, err := PeekID(KindHelloOK, nil); id != 0 || err != nil {
		t.Errorf("PeekID on an empty HelloOK payload = %d, %v; want 0, nil", id, err)
	}
	for _, kind := range []byte{KindRows, KindDone, KindError} {
		if _, err := PeekID(kind, make([]byte, 7)); err == nil {
			t.Errorf("kind %d: PeekID accepted a payload shorter than its ID", kind)
		}
	}
	if _, err := PeekID(99, make([]byte, 8)); err == nil {
		t.Error("PeekID accepted an unknown kind")
	}
}

// controlPayload encodes msg and returns its payload.
func controlPayload(t *testing.T, msg any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteFrame(&buf, msg.(message).kind(), msg); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()[5:]
}

func TestDecodeControlRejects(t *testing.T) {
	header := controlPayload(t, Header{ID: 1, Columns: []string{"A.temp", "B.temp"}, TraceID: "q"})
	epochEnd := controlPayload(t, EpochEnd{ID: 1, Complete: true})
	boolAt := 8 + 8 + 8 + 8 // Complete follows ID, Epoch, Time, RowCount
	badBool := bytes.Clone(epochEnd)
	badBool[boolAt] = 2
	hugeColumns := bytes.Clone(header)
	binary.BigEndian.PutUint32(hugeColumns[8:], math.MaxUint32)
	quarterColumns := bytes.Clone(header)
	binary.BigEndian.PutUint32(quarterColumns[8:], uint32(len(header)-12)/4+1)
	longString := bytes.Clone(header)
	binary.BigEndian.PutUint32(longString[12:], uint32(len(header)))
	cases := []struct {
		name    string
		payload []byte
		into    any
	}{
		{"empty Done", nil, new(Done)},
		{"Done one byte short", controlPayload(t, Done{ID: 1})[:15], new(Done)},
		{"Done with a trailing byte", append(controlPayload(t, Done{ID: 1}), 0), new(Done)},
		{"bool byte 2", badBool, new(EpochEnd)},
		{"bool byte 255", append(badBool[:boolAt:boolAt], append([]byte{255}, epochEnd[boolAt+1:]...)...), new(EpochEnd)},
		{"column count beyond the payload", hugeColumns, new(Header)},
		{"more columns than length prefixes fit", quarterColumns, new(Header)},
		{"string longer than the payload", longString, new(Header)},
		{"Header cut inside a string", header[:len(header)-3], new(Header)},
		{"Bye with a byte", []byte{0}, new(Bye)},
		{"a version-2 JSON Hello", []byte(`{"Version":2}`), new(Hello)},
		{"a JSON Query", []byte(`{"ID":1,"Src":"SELECT A.temp FROM Sensors A ONCE"}`), new(Query)},
		{"a destination that is no message", controlPayload(t, Done{ID: 1}), new(int)},
	}
	for _, c := range cases {
		before := reflect.ValueOf(c.into).Elem().Interface()
		var err error
		got := allocated(func() { err = Decode(c.payload, c.into) })
		if err == nil {
			t.Errorf("%s: decoded to %+v", c.name, c.into)
		}
		if after := reflect.ValueOf(c.into).Elem().Interface(); !reflect.DeepEqual(after, before) {
			t.Errorf("%s: a rejected payload changed the destination to %+v", c.name, after)
		}
		if got > allocSlack {
			t.Errorf("%s: rejecting %d bytes allocated %d", c.name, len(c.payload), got)
		}
	}
}

// Control frames cost no allocation on the way out beyond the pooled
// buffer, and on the way in only the strings they carry.
func TestControlFrameAllocs(t *testing.T) {
	msgs := []any{
		&Hello{Version: Version}, &HelloOK{Version: Version, Session: 1, Nodes: 150, Seed: 42},
		&Query{ID: 1, Src: "SELECT A.temp FROM Sensors A ONCE", Method: "external", TraceID: "t"},
		&Cancel{ID: 1}, &Bye{},
		&Header{ID: 1, Columns: []string{"A.temp", "B.temp"}, CacheHit: true, ClusterSize: 1, TraceID: "q-1-1-1"},
		&EpochEnd{ID: 1, Epoch: 2, Time: 20, RowCount: 7, Complete: true, Contributing: 3, Members: 9, ResponseTime: 1.5},
		&Done{ID: 1, Epochs: 1}, &Error{ID: 1, Code: CodeExec, Msg: "boom"},
	}
	for _, msg := range msgs {
		kind := msg.(message).kind()
		if n := testing.AllocsPerRun(100, func() {
			if err := WriteFrame(io.Discard, kind, msg); err != nil {
				t.Fatal(err)
			}
		}); n != 0 && !raceEnabled {
			t.Errorf("encoding kind %d: %.0f allocs, want 0", kind, n)
		}
	}

	decodes := []struct {
		msg  any
		into any
		want float64
	}{
		{msgs[3], new(Cancel), 0},
		{msgs[6], new(EpochEnd), 0},
		{msgs[7], new(Done), 0},
		{msgs[0], new(Hello), 0},
		{msgs[4], new(Bye), 0},
		// The column slice, and one string every column name and the
		// trace ID are sliced from.
		{msgs[5], new(Header), 2},
		{msgs[2], new(Query), 1},
		{msgs[8], new(Error), 1},
	}
	for _, d := range decodes {
		payload := controlPayload(t, d.msg)
		if n := testing.AllocsPerRun(100, func() {
			if err := Decode(payload, d.into); err != nil {
				t.Fatal(err)
			}
		}); n != d.want {
			t.Errorf("decoding %T: %.0f allocs, want %.0f", d.into, n, d.want)
		}
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
