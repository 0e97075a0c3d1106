package proto

import (
	"bytes"
	"encoding/binary"
	"io"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

// allocated returns the bytes the process allocated while fn ran. The
// fuzz worker's own goroutines allocate a little on the side, so callers
// compare against a bound with slack, never for equality.
func allocated(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// allocSlack is what a rejected input may still cost: an error value
// and its message, plus whatever the fuzz worker did meanwhile.
const allocSlack = 32 << 10

// realFrames renders one session the way the client and sensjoind do,
// as the seed corpus of every fuzz target.
func realFrames(tb testing.TB) [][]byte {
	var frames [][]byte
	add := func(kind byte, msg any) {
		var buf bytes.Buffer
		if err := WriteFrame(&buf, kind, msg); err != nil {
			tb.Fatal(err)
		}
		frames = append(frames, buf.Bytes())
	}
	add(KindHello, Hello{Version: Version})
	add(KindHelloOK, HelloOK{Version: Version, Session: 1, Nodes: 150, Seed: 42})
	add(KindQuery, Query{ID: 1, Src: "SELECT * FROM Sensors A, Sensors B WHERE A.temp - B.temp > 4.5 ONCE"})
	add(KindHeader, Header{ID: 1, Columns: []string{"A.temp", "A.hum", "B.temp", "B.hum"}, CacheHit: true, ClusterSize: 1, TraceID: "q-1-1-1"})
	add(KindRows, Rows{ID: 1, Total: 520, Rows: table(512, 4)})
	add(KindRows, Rows{ID: 1, Total: 520, Rows: table(8, 4)})
	add(KindRows, Rows{ID: 2, Epoch: 3, Rows: [][]float64{{math.NaN(), math.Inf(-1), math.Copysign(0, -1)}}})
	add(KindRows, Rows{ID: 3})
	add(KindEpochEnd, EpochEnd{ID: 1, RowCount: 520, Complete: true, Contributing: 31, Members: 40, ResponseTime: 3.648})
	add(KindDone, Done{ID: 1, Epochs: 1})
	add(KindError, Error{ID: 4, Code: CodeParse, Msg: "unknown attribute"})
	add(KindCancel, Cancel{ID: 5})
	add(KindEpochEnd, EpochEnd{ID: 2, Epoch: 3, Time: math.Inf(1), ResponseTime: math.NaN()})
	add(KindQuery, Query{ID: 6, Src: "SELECT A.temp FROM Sensors A SAMPLE PERIOD 10", Method: "external", At: math.NaN(), Rounds: 4, Nodes: 400, Seed: 9, TraceID: "t"})
	add(KindBye, Bye{})
	return frames
}

// FuzzReadFrame: the frame reader never panics, returns only what the
// stream held, and does not take a length prefix's word for how much
// memory to set aside. The reader a connection keeps (a FrameReader that
// has already read a longer frame) agrees with the one-frame entry point
// on every input, shows nothing of the longer frame, and never holds
// more than twice the bytes that arrived (or eagerBody).
func FuzzReadFrame(f *testing.F) {
	for _, frame := range realFrames(f) {
		f.Add(frame)
		f.Add(frame[:len(frame)/2])
	}
	hostile := make([]byte, 16)
	binary.BigEndian.PutUint32(hostile, MaxFrame)
	f.Add(hostile)

	// The frame the reused reader saw last: longer than most inputs, and
	// of bytes no input of the corpus starts with.
	var long bytes.Buffer
	if err := WriteFrame(&long, KindError, Error{ID: 9, Msg: strings.Repeat("\xa5", 300)}); err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var kind byte
		var payload []byte
		var err error
		got := allocated(func() { kind, payload, err = ReadFrame(bytes.NewReader(data)) })
		if limit := uint64(4*len(data) + eagerBody + allocSlack); got > limit {
			t.Fatalf("ReadFrame allocated %d bytes for %d bytes of input (limit %d)", got, len(data), limit)
		}

		fr := NewFrameReader(io.MultiReader(bytes.NewReader(long.Bytes()), bytes.NewReader(data)))
		if _, _, err := fr.Next(); err != nil {
			t.Fatal(err)
		}
		kind2, payload2, err2 := fr.Next()
		if kind2 != kind || !bytes.Equal(payload2, payload) || (err2 == nil) != (err == nil) {
			t.Fatalf("ReadFrame returned kind %d, %d bytes, %v; a reused FrameReader kind %d, %d bytes, %v",
				kind, len(payload), err, kind2, len(payload2), err2)
		}
		if cap(payload2) != len(payload2) {
			t.Fatalf("a %d-byte payload has capacity %d: the bytes behind it belong to an earlier frame", len(payload2), cap(payload2))
		}
		if limit := max(eagerBody, 2*len(data)); cap(fr.body) > limit {
			t.Fatalf("the reader holds %d bytes after %d arrived (limit %d)", cap(fr.body), len(data), limit)
		}
		if err != nil {
			return
		}
		n := int(binary.BigEndian.Uint32(data))
		if n != 1+len(payload) || kind != data[4] || !bytes.Equal(payload, data[5:4+n]) {
			t.Fatalf("ReadFrame returned kind %d and %d payload bytes for a frame of length %d", kind, len(payload), n)
		}
		// Whatever the payload is, routing and decoding it must not panic.
		PeekID(kind, payload)
		Decode(payload, new(Rows))
		for _, c := range controlKinds {
			Decode(payload, c.fresh())
		}
	})
}

// controlKinds lists every kind but Rows with a fresh destination for
// its message.
var controlKinds = []struct {
	kind  byte
	fresh func() any
}{
	{KindHello, func() any { return new(Hello) }},
	{KindHelloOK, func() any { return new(HelloOK) }},
	{KindQuery, func() any { return new(Query) }},
	{KindCancel, func() any { return new(Cancel) }},
	{KindBye, func() any { return new(Bye) }},
	{KindHeader, func() any { return new(Header) }},
	{KindEpochEnd, func() any { return new(EpochEnd) }},
	{KindDone, func() any { return new(Done) }},
	{KindError, func() any { return new(Error) }},
}

// FuzzDecodeControl: every control decoder never panics, rejects a
// payload (a hostile string or column count included) without
// allocating for it, and accepts only payloads that re-encode to the
// same bytes, which makes the layouts exact inverses of the encoder.
// Each input is tried as every control kind.
func FuzzDecodeControl(f *testing.F) {
	for _, frame := range realFrames(f) {
		if frame[4] != KindRows {
			f.Add(frame[5:])
			f.Add(frame[5 : 5+len(frame[5:])/2])
		}
	}
	f.Add([]byte(`{"Version":2}`))
	f.Fuzz(func(t *testing.T, payload []byte) {
		for _, c := range controlKinds {
			msg := c.fresh()
			var err error
			got := allocated(func() { err = Decode(payload, msg) })
			if err != nil {
				if got > allocSlack {
					t.Fatalf("kind %d: rejecting %d bytes allocated %d", c.kind, len(payload), got)
				}
				continue
			}
			// A Header's strings take a column header (16 bytes) for each
			// of their length prefixes (4 bytes), and one copy of the
			// payload they are sliced from.
			if limit := uint64(5*len(payload) + allocSlack); got > limit {
				t.Fatalf("kind %d: decoding %d bytes allocated %d (limit %d)", c.kind, len(payload), got, limit)
			}
			var buf bytes.Buffer
			if err := WriteFrame(&buf, c.kind, msg); err != nil {
				t.Fatalf("kind %d: re-encoding a decoded payload: %v", c.kind, err)
			}
			if !bytes.Equal(buf.Bytes()[5:], payload) {
				t.Fatalf("kind %d: encode∘decode changed the payload:\n got %x\nwant %x", c.kind, buf.Bytes()[5:], payload)
			}
			var want int64 // the session kinds have no ID
			if f := reflect.ValueOf(msg).Elem().FieldByName("ID"); f.IsValid() {
				want = f.Int()
			}
			if id, err := PeekID(c.kind, payload); err != nil || id != want {
				t.Fatalf("kind %d: PeekID = %d, %v; Decode read ID %d", c.kind, id, err, want)
			}
		}
	})
}

// FuzzDecodeRows: the Rows decoder never panics, refuses every payload
// whose header and length disagree before allocating for it, and is the
// exact inverse of the encoder.
func FuzzDecodeRows(f *testing.F) {
	for _, frame := range realFrames(f) {
		if frame[4] == KindRows {
			f.Add(frame[5:], false, uint32(0), uint32(0))
			f.Add(frame[5:len(frame)-3], false, uint32(0), uint32(0)) // truncated cell
			f.Add(frame[5:], true, uint32(1<<31+2), uint32(2))        // product wraps in 32 bits
			f.Add(frame[5:], true, uint32(math.MaxUint32), uint32(math.MaxUint32))
			f.Add(frame[5:], true, uint32(math.MaxUint32), uint32(0))
		}
	}
	f.Fuzz(func(t *testing.T, payload []byte, patch bool, nrows, ncols uint32) {
		// Mutation rarely lands on the two shape words, so the fuzzer
		// may also set them outright.
		if patch && len(payload) >= rowsHeaderLen {
			payload = bytes.Clone(payload)
			binary.BigEndian.PutUint32(payload[16:], nrows)
			binary.BigEndian.PutUint32(payload[20:], ncols)
		}
		var r Rows
		var err error
		got := allocated(func() { err = Decode(payload, &r) })
		if err != nil {
			if got > allocSlack {
				t.Fatalf("rejecting %d bytes allocated %d", len(payload), got)
			}
			return
		}
		// Cells take their own size again as float64s, and a row header
		// (24 bytes) is owed at least one 8-byte cell.
		if limit := uint64(4*len(payload) + allocSlack); got > limit {
			t.Fatalf("decoding %d bytes allocated %d (limit %d)", len(payload), got, limit)
		}
		cells := 0
		for _, row := range r.Rows {
			cells += len(row)
		}
		if rowsHeaderLen+8*cells != len(payload) {
			t.Fatalf("decoded %d cells from a %d-byte payload", cells, len(payload))
		}
		if id, err := PeekID(KindRows, payload); err != nil || id != r.ID {
			t.Fatalf("PeekID = %d, %v; Decode read ID %d", id, err, r.ID)
		}
		var buf bytes.Buffer
		if err := WriteFrame(&buf, KindRows, r); err != nil {
			t.Fatalf("re-encoding a decoded payload: %v", err)
		}
		if !bytes.Equal(buf.Bytes()[5:], payload) {
			t.Fatalf("encode∘decode changed the payload:\n got %x\nwant %x", buf.Bytes()[5:], payload)
		}
	})
}

// The bound FuzzReadFrame enforces, stated once as a plain test: a
// peer that sends a maximal length prefix and then stalls costs one
// eager buffer, not MaxFrame.
func TestReadFrameHostileLength(t *testing.T) {
	stalled := make([]byte, 4+100)
	binary.BigEndian.PutUint32(stalled, MaxFrame)
	var err error
	got := allocated(func() { _, _, err = ReadFrame(bytes.NewReader(stalled)) })
	if err == nil {
		t.Fatal("a truncated frame was accepted")
	}
	if got > eagerBody+allocSlack {
		t.Errorf("a stalled %d-byte frame cost %d bytes, want about %d", MaxFrame, got, eagerBody)
	}
}
