package client_test

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sort"
	"sync"
	"testing"
	"time"

	"sensjoin/internal/proto"
	"sensjoin/pkg/client"
)

// fakeServer is a scriptable sensjoind stand-in: each accepted
// connection runs the handler for its 1-based connection ordinal, so a
// test can script "crash on the first connection, behave on the
// second". Handlers run after a successful handshake.
//
// A handler that hangs up early shows on the client only as EOF, so the
// server notes the first error each connection's reads and writes met
// (or the handshake it refused) and names them when the test fails.
type fakeServer struct {
	t  testing.TB
	ln net.Listener

	mu   sync.Mutex
	ends map[int]error // connection ordinal → the first error it met
}

func newFakeServer(t testing.TB, handlers ...func(conn net.Conn)) *fakeServer {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fs := &fakeServer{t: t, ln: ln, ends: map[int]error{}}
	t.Cleanup(func() {
		ln.Close()
		if !t.Failed() {
			return
		}
		fs.mu.Lock()
		defer fs.mu.Unlock()
		ordinals := make([]int, 0, len(fs.ends))
		for i := range fs.ends {
			ordinals = append(ordinals, i)
		}
		sort.Ints(ordinals)
		for _, i := range ordinals {
			t.Logf("fake server, connection %d: %v", i, fs.ends[i])
		}
	})
	go func() {
		for i := 0; ; i++ {
			raw, err := ln.Accept()
			if err != nil {
				return
			}
			conn := &notingConn{Conn: raw, fs: fs, ordinal: i + 1}
			h := handlers[min(i, len(handlers)-1)]
			go func() {
				defer conn.Close()
				kind, _, err := proto.ReadFrame(conn)
				if err == nil && kind != proto.KindHello {
					fs.note(conn.ordinal, fmt.Errorf("handshake: frame kind %d, want Hello", kind))
				}
				if err != nil || kind != proto.KindHello {
					return
				}
				proto.WriteFrame(conn, proto.KindHelloOK, proto.HelloOK{
					Version: proto.Version, Session: int64(i + 1), Nodes: 10, Seed: 1,
				})
				h(conn)
			}()
		}
	}()
	return fs
}

// note keeps the first error connection ordinal met.
func (fs *fakeServer) note(ordinal int, err error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if _, ok := fs.ends[ordinal]; !ok {
		fs.ends[ordinal] = err
	}
}

// notingConn is a server-side connection that notes its I/O errors.
type notingConn struct {
	net.Conn
	fs      *fakeServer
	ordinal int
}

func (c *notingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if err != nil {
		c.fs.note(c.ordinal, fmt.Errorf("read: %w", err))
	}
	return n, err
}

func (c *notingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	if err != nil {
		c.fs.note(c.ordinal, fmt.Errorf("write: %w", err))
	}
	return n, err
}

func (fs *fakeServer) addr() string { return fs.ln.Addr().String() }

// readQuery consumes frames until a Query arrives.
func readQuery(conn net.Conn) (proto.Query, error) {
	for {
		kind, payload, err := proto.ReadFrame(conn)
		if err != nil {
			return proto.Query{}, err
		}
		if kind != proto.KindQuery {
			continue
		}
		var q proto.Query
		return q, proto.Decode(payload, &q)
	}
}

// answer serves one canned single-epoch table for query id.
func answer(conn net.Conn, id int64, rows [][]float64) {
	proto.WriteFrame(conn, proto.KindHeader, proto.Header{ID: id, Columns: []string{"A.temp"}})
	proto.WriteFrame(conn, proto.KindRows, proto.Rows{ID: id, Rows: rows})
	proto.WriteFrame(conn, proto.KindEpochEnd, proto.EpochEnd{ID: id, RowCount: len(rows), Complete: true})
	proto.WriteFrame(conn, proto.KindDone, proto.Done{ID: id, Epochs: 1})
}

// serveQueries answers every query with a canned table until the
// connection dies.
func serveQueries(conn net.Conn) {
	for {
		q, err := readQuery(conn)
		if err != nil {
			return
		}
		answer(conn, q.ID, [][]float64{{21.5}})
	}
}

// A broken connection fails the in-flight query, and with Reconnect set
// the next submission transparently re-dials.
func TestReconnectAfterConnectionDrop(t *testing.T) {
	fs := newFakeServer(t,
		func(conn net.Conn) { readQuery(conn) }, // crash mid-query: close without answering
		serveQueries,
	)
	c, err := client.DialWith(client.DialConfig{
		Addr: fs.addr(), Reconnect: true,
		BackoffBase: time.Millisecond, BackoffMax: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if c.Hello.Session != 1 {
		t.Fatalf("first session = %d, want 1", c.Hello.Session)
	}

	if _, err := c.Query(`SELECT ...`); err == nil {
		t.Fatal("query on crashing connection succeeded")
	}
	tb, err := c.Query(`SELECT ...`)
	if err != nil {
		t.Fatalf("query after reconnect: %v", err)
	}
	if len(tb.Rows) != 1 || tb.Rows[0][0] != 21.5 {
		t.Fatalf("reconnected query returned %v", tb.Rows)
	}
	if c.Hello.Session != 2 {
		t.Fatalf("session after reconnect = %d, want 2", c.Hello.Session)
	}
}

// Without Reconnect a dead connection stays dead: the original error
// keeps surfacing instead of a silent re-dial.
func TestNoReconnectByDefault(t *testing.T) {
	fs := newFakeServer(t, func(conn net.Conn) { readQuery(conn) }, serveQueries)
	c, err := client.Dial(fs.addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Query(`SELECT ...`); err == nil {
		t.Fatal("query on crashing connection succeeded")
	}
	if _, err := c.Query(`SELECT ...`); err == nil {
		t.Fatal("poisoned client silently re-dialed")
	}
}

// Reconnect gives up after MaxAttempts when the server stays down.
func TestReconnectGivesUp(t *testing.T) {
	fs := newFakeServer(t, func(conn net.Conn) { readQuery(conn) })
	c, err := client.DialWith(client.DialConfig{
		Addr: fs.addr(), Reconnect: true, MaxAttempts: 2,
		BackoffBase: time.Millisecond, BackoffMax: 2 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.Query(`SELECT ...`) // kills connection 1
	fs.ln.Close()         // server gone for good
	if _, err := c.Query(`SELECT ...`); err == nil {
		t.Fatal("query succeeded with the server down")
	}
}

// A query with a deadline surfaces a typed *TimeoutError instead of
// blocking forever, cancels server-side, and leaves the connection
// usable: a later frame flood for the dead query must not wedge the
// demux loop.
func TestQueryTimeoutTypedError(t *testing.T) {
	sawCancel := make(chan int64, 1)
	fs := newFakeServer(t, func(conn net.Conn) {
		q1, err := readQuery(conn)
		if err != nil {
			return
		}
		// Stall q1 until the client cancels it.
		for {
			kind, payload, err := proto.ReadFrame(conn)
			if err != nil {
				return
			}
			if kind == proto.KindCancel {
				var c proto.Cancel
				proto.Decode(payload, &c)
				sawCancel <- c.ID
				break
			}
		}
		// Flood the canceled query with more frames than its demux
		// buffer holds, then finish it; a wedged demux loop would never
		// reach the next query.
		for i := 0; i < 400; i++ {
			proto.WriteFrame(conn, proto.KindRows, proto.Rows{ID: q1.ID, Rows: [][]float64{{1}}})
		}
		proto.WriteFrame(conn, proto.KindDone, proto.Done{ID: q1.ID})
		serveQueries(conn)
	})
	c, err := client.DialWith(client.DialConfig{Addr: fs.addr(), QueryTimeout: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	st, err := c.Stream(`SELECT ...`, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, err = st.Next()
	var te *client.TimeoutError
	if !errors.As(err, &te) || !te.Timeout() {
		t.Fatalf("got %v, want *TimeoutError", err)
	}
	select {
	case <-sawCancel:
	case <-time.After(2 * time.Second):
		t.Fatal("server never saw the cancel")
	}
	// Next on a timed-out stream keeps returning the timeout.
	if _, err := st.Next(); !errors.As(err, &te) {
		t.Fatalf("second Next: got %v, want *TimeoutError", err)
	}

	tb, err := c.Query(`SELECT ...`)
	if err != nil {
		t.Fatalf("query after timeout+flood: %v", err)
	}
	if len(tb.Rows) != 1 {
		t.Fatalf("post-flood query returned %v", tb.Rows)
	}
}

// Options.Timeout overrides the client-wide QueryTimeout default.
func TestPerQueryTimeoutOverride(t *testing.T) {
	fs := newFakeServer(t, func(conn net.Conn) {
		q, err := readQuery(conn)
		if err != nil {
			return
		}
		time.Sleep(150 * time.Millisecond)
		answer(conn, q.ID, [][]float64{{3}})
	})
	c, err := client.DialWith(client.DialConfig{Addr: fs.addr(), QueryTimeout: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	tb, err := c.QueryOpts(`SELECT ...`, client.Options{Timeout: 5 * time.Second})
	if err != nil {
		t.Fatalf("generous per-query override still timed out: %v", err)
	}
	if len(tb.Rows) != 1 || tb.Rows[0][0] != 3 {
		t.Fatalf("got %v", tb.Rows)
	}
}

// Close stops reconnecting: a closed client never dials again.
func TestCloseDisablesReconnect(t *testing.T) {
	fs := newFakeServer(t, serveQueries)
	c, err := client.DialWith(client.DialConfig{
		Addr: fs.addr(), Reconnect: true, BackoffBase: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	c.Close()
	if _, err := c.Query(`SELECT ...`); !errors.Is(err, io.ErrClosedPipe) {
		t.Fatalf("query after Close: %v, want ErrClosedPipe", err)
	}
}

// A query of one epoch is read through its Done frame: Query returns
// after the server let the query go, and sends nothing behind it — no
// Cancel for a query that has already finished. Asking for the first of
// several epochs still cancels the rest.
func TestClosedLoopQueryReadsThroughDone(t *testing.T) {
	kinds := make(chan byte, 16)
	fs := newFakeServer(t, func(conn net.Conn) {
		for {
			kind, payload, err := proto.ReadFrame(conn)
			if err != nil {
				return
			}
			kinds <- kind
			if kind != proto.KindQuery {
				continue
			}
			var q proto.Query
			proto.Decode(payload, &q)
			proto.WriteFrame(conn, proto.KindHeader, proto.Header{ID: q.ID, Columns: []string{"A.temp"}})
			proto.WriteFrame(conn, proto.KindRows, proto.Rows{ID: q.ID, Rows: [][]float64{{21.5}}})
			proto.WriteFrame(conn, proto.KindEpochEnd, proto.EpochEnd{ID: q.ID, RowCount: 1, Complete: true})
			if q.Rounds <= 1 {
				// The terminal frame is late: Query must wait for it.
				time.Sleep(20 * time.Millisecond)
				kinds <- proto.KindDone
				proto.WriteFrame(conn, proto.KindDone, proto.Done{ID: q.ID, Epochs: 1})
			}
		}
	})
	c, err := client.Dial(fs.addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	next := func() byte {
		select {
		case k := <-kinds:
			return k
		case <-time.After(2 * time.Second):
			t.Fatal("the server saw no further frame")
			return 0
		}
	}
	for i := 0; i < 3; i++ {
		if _, err := c.Query(`SELECT ...`); err != nil {
			t.Fatal(err)
		}
		// By the time Query returns the server has sent Done, and the next
		// frame it reads is the next Query.
		if q, d := next(), next(); q != proto.KindQuery || d != proto.KindDone {
			t.Fatalf("query %d: the server saw frame kinds %d, %d; want Query then its own Done", i, q, d)
		}
	}
	if _, err := c.QueryOpts(`SELECT ...`, client.Options{Rounds: 5}); err != nil {
		t.Fatal(err)
	}
	if q, cancel := next(), next(); q != proto.KindQuery || cancel != proto.KindCancel {
		t.Fatalf("first of five epochs: the server saw frame kinds %d, %d; want Query, Cancel", q, cancel)
	}
}

// A finished stream hands its demux channel to the next one; a stream
// closed before its terminal frame keeps it, because the drain of its
// late frames still reads from it. Either way every query gets exactly
// its own table: here each answer carries its query's ID, the first query
// is abandoned after one of its three epochs, and the queries after it
// run on recycled channels while its late frames are still arriving.
func TestStreamChannelReuse(t *testing.T) {
	fs := newFakeServer(t, func(conn net.Conn) {
		for {
			q, err := readQuery(conn)
			if err != nil {
				return
			}
			epochs := max(q.Rounds, 1)
			proto.WriteFrame(conn, proto.KindHeader, proto.Header{ID: q.ID, Columns: []string{"id"}})
			for e := 0; e < epochs; e++ {
				if e > 0 {
					time.Sleep(5 * time.Millisecond)
				}
				proto.WriteFrame(conn, proto.KindRows, proto.Rows{ID: q.ID, Epoch: e, Rows: [][]float64{{float64(q.ID)}}})
				proto.WriteFrame(conn, proto.KindEpochEnd, proto.EpochEnd{ID: q.ID, Epoch: e, RowCount: 1, Complete: true})
			}
			proto.WriteFrame(conn, proto.KindDone, proto.Done{ID: q.ID, Epochs: epochs})
		}
	})
	c, err := client.Dial(fs.addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	st, err := c.Stream(`SELECT ...`, client.Options{Rounds: 3})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Next(); err != nil {
		t.Fatal(err)
	}
	st.Close()
	for i := 0; i < 20; i++ {
		tb, err := c.QueryOpts(`SELECT ...`, client.Options{Timeout: 2 * time.Second})
		if err != nil {
			t.Fatal(err)
		}
		if want := float64(i + 2); len(tb.Rows) != 1 || tb.Rows[0][0] != want {
			t.Fatalf("query %d got rows %v, want [[%g]]", i+2, tb.Rows, want)
		}
	}
}
