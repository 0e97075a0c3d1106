package client_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"runtime"
	"testing"
	"time"

	"sensjoin/internal/proto"
	"sensjoin/pkg/client"
)

// chunked serves one canned table for query id the way sensjoind does:
// chunk-row Rows frames, each stating total (0 = not stated, as a
// sender that does not know the epoch's size would).
func chunked(conn io.Writer, id int64, rows [][]float64, chunk, total int) {
	proto.WriteFrame(conn, proto.KindHeader, proto.Header{ID: id, Columns: []string{"v"}})
	for i := 0; i < len(rows); i += chunk {
		proto.WriteFrame(conn, proto.KindRows, proto.Rows{ID: id, Total: total, Rows: rows[i:min(i+chunk, len(rows))]})
	}
	proto.WriteFrame(conn, proto.KindEpochEnd, proto.EpochEnd{ID: id, RowCount: len(rows), Complete: true})
	proto.WriteFrame(conn, proto.KindDone, proto.Done{ID: id, Epochs: 1})
}

func sequence(n int) [][]float64 {
	rows := make([][]float64, n)
	for i := range rows {
		rows[i] = []float64{float64(i)}
	}
	return rows
}

// Next sizes the epoch's table once from the first chunk's Total, and
// assembles the same table whether Total is right, absent, too small,
// or a hostile 2^32-1.
func TestStreamAssemblesChunks(t *testing.T) {
	const n = 1300
	totals := []int{n, 0, 7, math.MaxUint32}
	fs := newFakeServer(t, func(conn net.Conn) {
		for _, total := range totals {
			q, err := readQuery(conn)
			if err != nil {
				return
			}
			chunked(conn, q.ID, sequence(n), 512, total)
		}
	})
	c, err := client.Dial(fs.addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for _, total := range totals {
		tb, err := c.Query(`SELECT ...`)
		if err != nil {
			t.Fatalf("total %d: %v", total, err)
		}
		if len(tb.Rows) != n {
			t.Fatalf("total %d: got %d rows, want %d", total, len(tb.Rows), n)
		}
		for i, row := range tb.Rows {
			if len(row) != 1 || row[0] != float64(i) {
				t.Fatalf("total %d: row %d = %v", total, i, row)
			}
		}
		if total == n && cap(tb.Rows) != n {
			t.Errorf("a stated Total of %d left the table with capacity %d", n, cap(tb.Rows))
		}
	}

	// A 10-chunk epoch allocates its row headers once, in the table: each
	// chunk's header slice goes back to the read loop for the next chunk.
	// The server side writes frames it encoded up front, so what the
	// process allocates per query is the client's.
	const chunks, size, runs = 10, 512, 8
	epochs := make(map[int64][]byte)
	for id := int64(1); id <= runs+1; id++ {
		var buf bytes.Buffer
		chunked(&buf, id, sequence(chunks*size), size, chunks*size)
		epochs[id] = buf.Bytes()
	}
	const small = 3 // a one-chunk epoch after the 10-chunk ones
	var smallBuf bytes.Buffer
	chunked(&smallBuf, runs+2, sequence(small), size, small)
	epochs[runs+2] = smallBuf.Bytes()
	pin := newFakeServer(t, func(conn net.Conn) {
		for {
			q, err := readQuery(conn)
			if err != nil {
				return
			}
			conn.Write(epochs[q.ID])
		}
	})
	pc, err := client.Dial(pin.addr())
	if err != nil {
		t.Fatal(err)
	}
	defer pc.Close()
	query := func() {
		tb, err := pc.Query(`SELECT ...`)
		if err != nil || len(tb.Rows) != chunks*size {
			t.Fatalf("10-chunk epoch: %v", err)
		}
	}
	query() // warm: the connection's chunk header slices
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		query()
	}
	runtime.ReadMemStats(&after)
	headers, cells := chunks*size*24, chunks*size*8
	got := int(after.TotalAlloc-before.TotalAlloc) / runs
	t.Logf("10-chunk epoch: %d bytes per query (headers %d, cells %d)", got, headers, cells)
	if limit := headers + cells + headers/2; got > limit {
		t.Errorf("a 10-chunk epoch allocates %d bytes, want <= %d: its %d bytes of row headers once and its %d of cells", got, limit, headers, cells)
	}

	// The small epoch is decoded into a recycled 512-row header slice; its
	// table gets headers at its own size, and the slice stays the
	// connection's.
	tb, err := pc.Query(`SELECT ...`)
	if err != nil || len(tb.Rows) != small {
		t.Fatalf("one-chunk epoch: %v", err)
	}
	if cap(tb.Rows) != small {
		t.Errorf("a one-chunk epoch of %d rows after 10-chunk ones has a table of capacity %d", small, cap(tb.Rows))
	}
}

// Non-finite cells and the sign of zero cross the client bit for bit.
func TestStreamNonFiniteCells(t *testing.T) {
	want := [][]float64{
		{math.NaN(), math.Inf(1), math.Inf(-1)},
		{math.Copysign(0, -1), math.Float64frombits(0x7ff8000000000123), 0},
	}
	fs := newFakeServer(t, func(conn net.Conn) {
		q, err := readQuery(conn)
		if err != nil {
			return
		}
		chunked(conn, q.ID, want, 1, len(want))
	})
	c, err := client.Dial(fs.addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	tb, err := c.Query(`SELECT ...`)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != len(want) {
		t.Fatalf("got %d rows, want %d", len(tb.Rows), len(want))
	}
	for i := range want {
		for j := range want[i] {
			if got, w := math.Float64bits(tb.Rows[i][j]), math.Float64bits(want[i][j]); got != w {
				t.Errorf("cell %d,%d: bits %#x, want %#x", i, j, got, w)
			}
		}
	}
}

// A malformed Rows frame fails its own query with a decode error; the
// demux loop keeps routing the connection's other queries.
func TestStreamMalformedRows(t *testing.T) {
	fs := newFakeServer(t, func(conn net.Conn) {
		q, err := readQuery(conn)
		if err != nil {
			return
		}
		// A valid header claiming 2^31+2 rows of 2 cells, carrying 4.
		var frame [4 + 1 + 24 + 32]byte
		frame[3] = byte(len(frame) - 4)
		frame[4] = proto.KindRows
		frame[5+7] = byte(q.ID)
		frame[5+16], frame[5+19], frame[5+23] = 0x80, 2, 2
		conn.Write(frame[:])
		serveQueries(conn)
	})
	c, err := client.Dial(fs.addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if tb, err := c.Query(`SELECT ...`); err == nil {
		t.Fatalf("a Rows frame whose shape wraps in 32 bits decoded to %d rows", len(tb.Rows))
	}
	if _, err := c.Query(`SELECT ...`); err != nil {
		t.Fatalf("query after the malformed frame: %v", err)
	}
}

// A response stream that disagrees with itself is an error, never a
// short or ragged table: each script is one epoch the way sensjoind frames
// it, with one defect. The stream stays failed, the client cancels the
// query, and the connection keeps serving.
func TestStreamRejectsInconsistentEpoch(t *testing.T) {
	rows := sequence(1024)
	chunk := func(id int64, epoch int, rows [][]float64) proto.Rows {
		return proto.Rows{ID: id, Epoch: epoch, Total: 1024, Rows: rows}
	}
	scripts := []struct {
		name   string
		chunks func(id int64) []proto.Rows
		end    proto.EpochEnd
	}{
		{"dropped chunk", func(id int64) []proto.Rows {
			return []proto.Rows{chunk(id, 0, rows[:512])}
		}, proto.EpochEnd{RowCount: 1024}},
		{"RowCount below the rows sent", func(id int64) []proto.Rows {
			return []proto.Rows{chunk(id, 0, rows[:512]), chunk(id, 0, rows[512:])}
		}, proto.EpochEnd{RowCount: 1000}},
		{"chunk of another width", func(id int64) []proto.Rows {
			return []proto.Rows{chunk(id, 0, rows[:512]), chunk(id, 0, [][]float64{{1, 2}, {3, 4}})}
		}, proto.EpochEnd{RowCount: 514}},
		{"chunk of another epoch", func(id int64) []proto.Rows {
			return []proto.Rows{chunk(id, 0, rows[:512]), chunk(id, 1, rows[512:])}
		}, proto.EpochEnd{RowCount: 1024}},
		{"EpochEnd of another epoch", func(id int64) []proto.Rows {
			return []proto.Rows{chunk(id, 0, rows[:512]), chunk(id, 0, rows[512:])}
		}, proto.EpochEnd{Epoch: 1, RowCount: 1024}},
	}
	canceled := make(chan int64, len(scripts))
	fs := newFakeServer(t, func(conn net.Conn) {
		for _, sc := range scripts {
			q, err := readQuery(conn)
			if err != nil {
				return
			}
			proto.WriteFrame(conn, proto.KindHeader, proto.Header{ID: q.ID, Columns: []string{"v"}})
			for _, c := range sc.chunks(q.ID) {
				proto.WriteFrame(conn, proto.KindRows, c)
			}
			sc.end.ID, sc.end.Complete = q.ID, true
			proto.WriteFrame(conn, proto.KindEpochEnd, sc.end)
			for {
				kind, payload, err := proto.ReadFrame(conn)
				if err != nil {
					return
				}
				if kind == proto.KindCancel {
					var c proto.Cancel
					proto.Decode(payload, &c)
					canceled <- c.ID
					break
				}
			}
			proto.WriteFrame(conn, proto.KindDone, proto.Done{ID: q.ID})
		}
		serveQueries(conn)
	})
	c, err := client.Dial(fs.addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for _, sc := range scripts {
		st, err := c.Stream(`SELECT ...`, client.Options{})
		if err != nil {
			t.Fatal(err)
		}
		tb, err := st.Next()
		if err == nil {
			t.Fatalf("%s: Next returned a table of %d rows and no error", sc.name, len(tb.Rows))
		}
		var se *client.ServerError
		if errors.As(err, &se) || err == io.EOF {
			t.Fatalf("%s: got %v, want the client's own consistency error", sc.name, err)
		}
		if _, again := st.Next(); again != err {
			t.Errorf("%s: second Next returned %v, want the same %v", sc.name, again, err)
		}
		select {
		case <-canceled:
		case <-time.After(2 * time.Second):
			t.Fatalf("%s: the server never saw a Cancel for the failed query", sc.name)
		}
	}
	if tb, err := c.Query(`SELECT ...`); err != nil || len(tb.Rows) != 1 {
		t.Fatalf("query after the inconsistent streams: %v, %v", tb, err)
	}
}

// One query answered with one Rows frame over loopback: what the client
// adds to the codec (demux, channel hand-off, table assembly).
func BenchmarkClientRoundTrip(b *testing.B) {
	for _, s := range []struct{ nrows, ncols int }{{512, 12}, {8, 3}} {
		b.Run(fmt.Sprintf("%dx%d", s.nrows, s.ncols), func(b *testing.B) {
			rows := make([][]float64, s.nrows)
			for i := range rows {
				rows[i] = make([]float64, s.ncols)
				for j := range rows[i] {
					rows[i][j] = float64(i) + float64(j)/16
				}
			}
			fs := newFakeServer(b, func(conn net.Conn) {
				for {
					q, err := readQuery(conn)
					if err != nil {
						return
					}
					chunked(conn, q.ID, rows, len(rows), len(rows))
				}
			})
			c, err := client.Dial(fs.addr())
			if err != nil {
				b.Fatal(err)
			}
			defer c.Close()
			b.SetBytes(int64(8 * s.nrows * s.ncols))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tb, err := c.Query(`SELECT ...`)
				if err != nil || len(tb.Rows) != s.nrows {
					b.Fatalf("%v, %v", tb, err)
				}
			}
		})
	}
}

// A control frame whose payload does not match its layout fails its
// query and nothing else. A malformed Header ends the stream with the
// decode error and cancels the query; a malformed terminal frame (Error
// here) still ends it, with nothing left to drain.
func TestStreamRejectsMalformedControlFrames(t *testing.T) {
	raw := func(conn net.Conn, kind byte, payload []byte) {
		frame := binary.BigEndian.AppendUint32(nil, uint32(1+len(payload)))
		conn.Write(append(append(frame, kind), payload...))
	}
	canceled := make(chan int64, 1)
	fs := newFakeServer(t, func(conn net.Conn) {
		q, err := readQuery(conn)
		if err != nil {
			return
		}
		var buf bytes.Buffer
		proto.WriteFrame(&buf, proto.KindHeader, proto.Header{ID: q.ID, Columns: []string{"v"}})
		header := buf.Bytes()[5:]
		header[len(header)-1] = 2 // Sampled: neither 0 nor 1
		raw(conn, proto.KindHeader, header)
		for {
			kind, payload, err := proto.ReadFrame(conn)
			if err != nil {
				return
			}
			if kind == proto.KindCancel {
				var c proto.Cancel
				proto.Decode(payload, &c)
				canceled <- c.ID
				break
			}
		}
		proto.WriteFrame(conn, proto.KindDone, proto.Done{ID: q.ID})

		if q, err = readQuery(conn); err != nil {
			return
		}
		raw(conn, proto.KindError, binary.BigEndian.AppendUint64(nil, uint64(q.ID))) // no Code, no Msg
		serveQueries(conn)
	})
	c, err := client.Dial(fs.addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for _, name := range []string{"malformed Header", "malformed Error"} {
		st, err := c.Stream(`SELECT ...`, client.Options{})
		if err != nil {
			t.Fatal(err)
		}
		_, err = st.Next()
		var se *client.ServerError
		if err == nil || err == io.EOF || errors.As(err, &se) {
			t.Fatalf("%s: Next returned %v, want the decode error", name, err)
		}
		if name == "malformed Header" {
			select {
			case <-canceled:
			case <-time.After(2 * time.Second):
				t.Fatalf("%s: the server never saw a Cancel for the failed query", name)
			}
		}
	}
	if tb, err := c.Query(`SELECT ...`); err != nil || len(tb.Rows) != 1 {
		t.Fatalf("query after the malformed frames: %v, %v", tb, err)
	}
}
