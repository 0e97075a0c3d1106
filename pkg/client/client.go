// Package client is the Go client for sensjoind, the sensjoin query
// daemon. One Client multiplexes any number of concurrent queries over
// a single connection:
//
//	c, err := client.Dial("127.0.0.1:7077")
//	defer c.Close()
//	table, err := c.Query(`SELECT A.temp, B.hum FROM Sensors A, Sensors B
//	                       WHERE A.temp - B.temp > 8.0 ONCE`)
//
// Continuous queries stream one Table per epoch:
//
//	st, err := c.Stream(src, client.Options{Rounds: 5})
//	for {
//		table, err := st.Next()
//		if err == io.EOF { break }
//		...
//	}
//
// With DialConfig.Reconnect set, a broken connection fails the queries
// that were in flight on it (their execution state is gone) but the
// Client re-dials with capped exponential backoff before the next
// submission instead of staying poisoned. Options.Timeout (or the
// DialConfig.QueryTimeout default) bounds how long Next waits for an
// epoch; expiry cancels the query server-side and surfaces as a
// *TimeoutError.
//
// The wire protocol is internal/proto; see PROTOCOL.md.
package client

import (
	"bufio"
	"fmt"
	"io"
	"math/rand"
	"net"
	"sync"
	"time"

	"sensjoin/internal/proto"
)

// Options tune one query submission.
type Options struct {
	// Method selects the join method: "" / "sens" (default) or
	// "external".
	Method string
	// At is the snapshot time of the first epoch.
	At float64
	// Rounds caps a periodic query's epochs (default 1).
	Rounds int
	// Nodes/Seed override the server's default deployment (0 = server
	// default).
	Nodes int
	Seed  int64
	// Timeout bounds each Next call on this query's stream; expiry
	// cancels the query and Next returns a *TimeoutError. 0 uses the
	// client's DialConfig.QueryTimeout (which defaults to none).
	Timeout time.Duration
	// TraceID names this query in the server's flight recorder
	// (/debug/queries). Empty lets the server assign one; either way
	// the effective ID is returned on Table.TraceID.
	TraceID string
}

// DialConfig tunes a connection and its failure behaviour.
type DialConfig struct {
	// Addr is the server address (host:port).
	Addr string
	// Timeout bounds connect + handshake (default 10s).
	Timeout time.Duration
	// Reconnect re-dials a broken connection (capped exponential
	// backoff with jitter) before the next query submission instead of
	// failing every later call with the stale connection error.
	Reconnect bool
	// BackoffBase is the first reconnect delay (default 50ms).
	BackoffBase time.Duration
	// BackoffMax caps the reconnect delay (default 5s).
	BackoffMax time.Duration
	// MaxAttempts bounds the dial attempts of one reconnect (default 5).
	MaxAttempts int
	// QueryTimeout is the default per-query deadline applied when
	// Options.Timeout is zero; 0 means no deadline.
	QueryTimeout time.Duration
}

func (c DialConfig) withDefaults() DialConfig {
	if c.Timeout == 0 {
		c.Timeout = 10 * time.Second
	}
	if c.BackoffBase == 0 {
		c.BackoffBase = 50 * time.Millisecond
	}
	if c.BackoffMax == 0 {
		c.BackoffMax = 5 * time.Second
	}
	if c.MaxAttempts == 0 {
		c.MaxAttempts = 5
	}
	return c
}

// Table is one epoch's result table.
type Table struct {
	Columns []string
	Rows    [][]float64
	// Epoch numbers the table within a continuous query (0-based).
	Epoch int
	// Time is the snapshot time the epoch sampled.
	Time         float64
	Complete     bool
	Contributing int
	Members      int
	ResponseTime float64
	// CacheHit reports that the server served the compiled plan from
	// its prepared-query cache.
	CacheHit bool
	// Shared reports shared (grouped) execution with ClusterSize
	// queries per protocol round.
	Shared      bool
	ClusterSize int
	// TraceID identifies this query in the server's flight recorder:
	// GET /debug/queries on the observability port lists recent
	// executions (phase latencies, cache and sharing facts), and when
	// Sampled is true, /debug/queries?trace=<TraceID> serves the
	// query's full span tree as JSONL.
	TraceID string
	Sampled bool
}

// ServerError is a query or session failure reported by the server.
type ServerError struct {
	Code string
	Msg  string
}

func (e *ServerError) Error() string { return fmt.Sprintf("sensjoind: %s: %s", e.Code, e.Msg) }

// TimeoutError reports a query that exceeded its deadline. It
// implements the net.Error-style Timeout method, so generic callers can
// detect it without importing this package's type.
type TimeoutError struct {
	// After is the deadline that expired.
	After time.Duration
}

func (e *TimeoutError) Error() string {
	return fmt.Sprintf("client: query timed out after %s", e.After)
}

// Timeout reports true; the error is a deadline expiry.
func (e *TimeoutError) Timeout() bool { return true }

// frame is what the read loop hands a stream: one server frame,
// decoded once, into the field of its kind (or with the error that
// stopped its decoding). The loop reads every frame into the
// connection's one body, and nothing decoded aliases it.
type frame struct {
	kind   byte
	err    error
	header proto.Header
	chunk  proto.Rows
	end    proto.EpochEnd
	fail   proto.Error
}

// wire is one live connection: its demux table and terminal error are
// tied to this connection's lifetime, so a reconnect starts from a
// clean slate while streams of the old connection keep observing the
// old connection's death.
type wire struct {
	conn net.Conn
	wmu  sync.Mutex // serializes WriteFrame
	// query is the Query being written, under wmu: handed to WriteFrame
	// by pointer, it costs no boxing per submission.
	query proto.Query

	mu    sync.Mutex
	calls map[int64]chan frame
	err   error // terminal connection error, set once
	// free holds the demux channels of finished streams for the next
	// ones (register); at most maxFreeStreams.
	free []chan frame
	// chunks holds the row-header slices of Rows chunks whose rows a
	// stream has copied into its table, for the read loop to decode the
	// next chunks into; at most maxFreeChunks.
	chunks [][][]float64

	// done closes when the connection dies; it unblocks every stream
	// without the races of closing the per-call channels.
	done     chan struct{}
	doneOnce sync.Once
}

// fail terminates every in-flight call on this connection with err.
func (w *wire) fail(err error) {
	w.mu.Lock()
	if w.err == nil {
		w.err = err
	}
	w.mu.Unlock()
	w.doneOnce.Do(func() { close(w.done) })
}

func (w *wire) error() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.err
}

// maxFreeStreams bounds the finished streams' channels a connection
// keeps: as many as a client commonly has queries outstanding.
const maxFreeStreams = 16

// register gives a new call id a demux channel, a finished stream's when
// one is free.
func (w *wire) register(id int64) chan frame {
	w.mu.Lock()
	defer w.mu.Unlock()
	var ch chan frame
	if k := len(w.free); k > 0 {
		ch, w.free = w.free[k-1], w.free[:k-1]
	} else {
		ch = make(chan frame, streamBuffer)
	}
	w.calls[id] = ch
	return ch
}

// release takes back the channel of a stream whose Next received the
// terminal Done or Error frame: the read loop never sends on a channel
// after that frame, so the channel is empty and nobody else holds it.
func (w *wire) release(ch chan frame) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if len(w.free) < maxFreeStreams {
		w.free = append(w.free, ch)
	}
}

// maxFreeChunks bounds the chunk header slices a connection keeps: about
// one epoch of the tables sensjoind is measured on (18 chunks of 512
// rows is the largest).
const maxFreeChunks = 16

// chunkHeaders returns a recycled chunk header slice to decode a Rows
// chunk into, nil when there is none (decoding then makes one).
func (w *wire) chunkHeaders() [][]float64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	k := len(w.chunks)
	if k == 0 {
		return nil
	}
	rows := w.chunks[k-1]
	w.chunks = w.chunks[:k-1]
	return rows
}

// recycleChunk takes back the header slice of a chunk whose rows were
// copied into a table. The cells stay the table's: the headers are
// cleared so the free slice does not keep them alive.
func (w *wire) recycleChunk(rows [][]float64) {
	clear(rows)
	w.mu.Lock()
	defer w.mu.Unlock()
	if len(w.chunks) < maxFreeChunks {
		w.chunks = append(w.chunks, rows[:0])
	}
}

// Client is a connection to sensjoind. It is safe for concurrent use.
type Client struct {
	cfg DialConfig

	// rmu serializes reconnect attempts: concurrent submissions on a
	// broken connection share one backoff sequence.
	rmu sync.Mutex

	mu     sync.Mutex
	w      *wire
	nextID int64
	closed bool

	// Hello is the server's session greeting (the latest connection's).
	Hello proto.HelloOK
}

// Dial connects and performs the protocol handshake.
func Dial(addr string) (*Client, error) {
	return DialWith(DialConfig{Addr: addr})
}

// DialWith connects with explicit configuration.
func DialWith(cfg DialConfig) (*Client, error) {
	cfg = cfg.withDefaults()
	w, hello, err := connect(cfg.Addr, cfg.Timeout)
	if err != nil {
		return nil, err
	}
	c := &Client{cfg: cfg, w: w, Hello: hello}
	go c.readLoop(w)
	return c, nil
}

// connect dials and performs the handshake, returning the live wire.
func connect(addr string, timeout time.Duration) (*wire, proto.HelloOK, error) {
	var hello proto.HelloOK
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, hello, err
	}
	conn.SetDeadline(time.Now().Add(timeout))
	if err := proto.WriteFrame(conn, proto.KindHello, proto.Hello{Version: proto.Version}); err != nil {
		conn.Close()
		return nil, hello, err
	}
	kind, payload, err := proto.ReadFrame(conn)
	if err != nil {
		conn.Close()
		return nil, hello, err
	}
	switch kind {
	case proto.KindHelloOK:
		if err := proto.Decode(payload, &hello); err != nil {
			conn.Close()
			return nil, hello, err
		}
	case proto.KindError:
		var e proto.Error
		err := proto.Decode(payload, &e)
		conn.Close()
		if err != nil {
			// A server of another protocol version answers in a layout
			// this client cannot read.
			return nil, hello, fmt.Errorf("client: handshake refused with an unreadable Error frame: %w", err)
		}
		return nil, hello, &ServerError{Code: e.Code, Msg: e.Msg}
	default:
		conn.Close()
		return nil, hello, fmt.Errorf("client: unexpected handshake frame kind %d", kind)
	}
	conn.SetDeadline(time.Time{})
	return &wire{conn: conn, calls: make(map[int64]chan frame), done: make(chan struct{})}, hello, nil
}

// Close tears the connection down; all in-flight queries fail and no
// reconnect happens afterwards.
func (c *Client) Close() error {
	c.mu.Lock()
	c.closed = true
	w := c.w
	c.mu.Unlock()
	// Record the reason before closing the socket: closing it makes the
	// read loop fail with "use of closed network connection", and the
	// first recorded error is the one callers see.
	w.fail(io.ErrClosedPipe)
	w.wmu.Lock()
	proto.WriteFrame(w.conn, proto.KindBye, proto.Bye{})
	w.wmu.Unlock()
	return w.conn.Close()
}

// healthyWire returns the current connection, re-dialing a broken one
// when the configuration allows. Reconnect attempts back off
// exponentially from BackoffBase to BackoffMax with full jitter, so a
// herd of clients does not re-dial a recovering server in lockstep.
func (c *Client) healthyWire() (*wire, error) {
	c.rmu.Lock()
	defer c.rmu.Unlock()
	c.mu.Lock()
	w, closed := c.w, c.closed
	c.mu.Unlock()
	err := w.error()
	if err == nil {
		return w, nil
	}
	if closed || !c.cfg.Reconnect {
		return nil, err
	}
	for attempt := 0; attempt < c.cfg.MaxAttempts; attempt++ {
		time.Sleep(backoff(c.cfg.BackoffBase, c.cfg.BackoffMax, attempt))
		nw, hello, derr := connect(c.cfg.Addr, c.cfg.Timeout)
		if derr != nil {
			err = derr
			continue
		}
		c.mu.Lock()
		if c.closed {
			c.mu.Unlock()
			nw.conn.Close()
			return nil, io.ErrClosedPipe
		}
		c.w = nw
		c.Hello = hello
		c.mu.Unlock()
		go c.readLoop(nw)
		return nw, nil
	}
	return nil, err
}

// backoff returns the delay before dial attempt (0-based), capped
// exponential with full jitter.
func backoff(base, max time.Duration, attempt int) time.Duration {
	d := base << uint(attempt)
	if d > max || d <= 0 {
		d = max
	}
	return time.Duration(rand.Int63n(int64(d)) + 1)
}

// readLoop demultiplexes one connection's server frames to their
// query's channel, decoding each routed frame once.
func (c *Client) readLoop(w *wire) {
	fr := proto.NewFrameReader(bufio.NewReader(w.conn))
	for {
		kind, payload, err := fr.Next()
		if err != nil {
			w.fail(err)
			return
		}
		var id int64
		switch kind {
		case proto.KindHeader, proto.KindRows, proto.KindEpochEnd, proto.KindDone, proto.KindError:
			id, err = proto.PeekID(kind, payload)
		default:
			err = fmt.Errorf("client: unexpected frame kind %d", kind)
		}
		if err == nil && id == 0 {
			// A session-level error (ID 0) poisons the connection.
			err = fmt.Errorf("client: unroutable frame kind %d", kind)
			if kind == proto.KindError {
				var e proto.Error
				if err = proto.Decode(payload, &e); err == nil {
					err = &ServerError{Code: e.Code, Msg: e.Msg}
				}
			}
		}
		if err != nil {
			w.fail(err)
			return
		}
		w.mu.Lock()
		ch := w.calls[id]
		w.mu.Unlock()
		if ch == nil {
			continue // canceled and forgotten
		}
		f := frame{kind: kind}
		switch kind {
		case proto.KindHeader:
			f.err = proto.Decode(payload, &f.header)
		case proto.KindRows:
			f.chunk.Rows = w.chunkHeaders() // Decode reuses it when large enough
			f.err = proto.Decode(payload, &f.chunk)
		case proto.KindEpochEnd:
			f.err = proto.Decode(payload, &f.end)
		case proto.KindDone:
			var d proto.Done
			f.err = proto.Decode(payload, &d)
		case proto.KindError:
			f.err = proto.Decode(payload, &f.fail)
		}
		ch <- f
		if kind == proto.KindDone || kind == proto.KindError {
			w.mu.Lock()
			delete(w.calls, id)
			w.mu.Unlock()
		}
	}
}

// Query runs a one-shot query and returns its table.
func (c *Client) Query(src string) (*Table, error) {
	return c.QueryOpts(src, Options{})
}

// QueryOpts runs a query and returns its first (for one-shot queries,
// only) table, discarding any further epochs. A query of one epoch is
// read through its terminal frame, which the server sends once the query
// has left admission: when QueryOpts returns, the caller's next query
// does not compete with this one for a slot.
func (c *Client) QueryOpts(src string, o Options) (*Table, error) {
	st, err := c.Stream(src, o)
	if err != nil {
		return nil, err
	}
	t, err := st.Next()
	if err != nil {
		return nil, err
	}
	if o.Rounds <= 1 {
		st.Next() // Done; whatever comes instead, the table is already whole
	}
	st.Close() // cancels what is still running, nothing after Done
	return t, nil
}

// Stream submits a query and returns its epoch stream.
func (c *Client) Stream(src string, o Options) (*Stream, error) {
	w, err := c.healthyWire()
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	c.nextID++
	id := c.nextID
	c.mu.Unlock()
	ch := w.register(id)

	w.wmu.Lock()
	w.query = proto.Query{
		ID: id, Src: src, Method: o.Method, At: o.At,
		Rounds: o.Rounds, Nodes: o.Nodes, Seed: o.Seed,
		TraceID: o.TraceID,
	}
	werr := proto.WriteFrame(w.conn, proto.KindQuery, &w.query)
	w.wmu.Unlock()
	if werr != nil {
		w.mu.Lock()
		delete(w.calls, id)
		w.mu.Unlock()
		return nil, werr
	}
	timeout := o.Timeout
	if timeout == 0 {
		timeout = c.cfg.QueryTimeout
	}
	return &Stream{w: w, id: id, ch: ch, timeout: timeout}, nil
}

// streamBuffer is how many frames the read loop may run ahead of one
// stream's Next before it waits for it (and with it every other stream
// of the connection: the bound on what an idle consumer makes the client
// hold). 32 covers a whole epoch of the tables sensjoind is measured on,
// 18 chunks of 512 rows and three control frames, so reading one never
// stalls the loop.
const streamBuffer = 32

// maxPresizedRows bounds the table Next allocates on the word of a
// Rows frame's Total alone (24 MB of row headers); a larger epoch grows
// as its chunks arrive.
const maxPresizedRows = 1 << 20

// Stream is one query's sequence of epoch tables.
type Stream struct {
	w  *wire
	id int64
	ch chan frame

	// timeout bounds each Next call; 0 waits forever.
	timeout time.Duration

	header proto.Header
	epoch  int // the epoch being assembled: tables returned so far
	rows   [][]float64
	done   bool
	err    error
}

// fail ends the stream on a response the client cannot use: every later
// Next returns err, and the query is canceled server-side so that what it
// still sends is drained off the demux loop.
func (s *Stream) fail(err error) (*Table, error) {
	s.err = err
	s.cancel()
	return nil, err
}

// Next returns the next epoch's table, io.EOF after the final epoch, or
// the error that terminated the query. A response stream that disagrees
// with itself is such an error, not a short or ragged table: a Rows chunk
// of another epoch than the one being assembled or of another width than
// the epoch's first, and an EpochEnd whose RowCount is not the number of
// rows that arrived. When the stream has a deadline and no epoch arrives
// in time, Next cancels the query server-side and returns a
// *TimeoutError — later frames of the canceled query are drained off the
// demux loop in the background, never blocking it.
func (s *Stream) Next() (*Table, error) {
	if s.err != nil {
		return nil, s.err
	}
	if s.done {
		return nil, io.EOF
	}
	var expired <-chan time.Time
	if s.timeout > 0 {
		t := time.NewTimer(s.timeout)
		defer t.Stop()
		expired = t.C
	}
	for {
		var f frame
		select {
		case f = <-s.ch:
		default:
			// Only consult the connection's death after draining every
			// frame that arrived before it.
			select {
			case f = <-s.ch:
			case <-s.w.done:
				// The read loop may have buffered the rest of the stream
				// between the receive above and closing done: the close
				// happens after those sends, so they are all visible here.
				select {
				case f = <-s.ch:
				default:
					s.err = s.w.error()
					if s.err == nil {
						s.err = io.ErrUnexpectedEOF
					}
					return nil, s.err
				}
			case <-expired:
				return s.fail(&TimeoutError{After: s.timeout})
			}
		}
		if f.err != nil {
			if f.kind == proto.KindDone || f.kind == proto.KindError {
				s.finish() // the query's last frame: nothing follows to drain
				s.err = f.err
				return nil, s.err
			}
			return s.fail(f.err)
		}
		switch f.kind {
		case proto.KindHeader:
			s.header = f.header
		case proto.KindRows:
			r := f.chunk
			switch {
			case r.Epoch != s.epoch:
				return s.fail(fmt.Errorf("client: Rows chunk of epoch %d while assembling epoch %d", r.Epoch, s.epoch))
			case len(s.rows) > 0 && len(r.Rows) > 0 && len(r.Rows[0]) != len(s.rows[0]):
				return s.fail(fmt.Errorf("client: Rows chunk %d cells wide in an epoch %d cells wide", len(r.Rows[0]), len(s.rows[0])))
			}
			// The first chunk's row headers become the table, which is all
			// of it when the epoch is one chunk; a larger stated Total
			// sizes the table once for the chunks to come. A chunk copied
			// into the table gives its header slice back to the read loop
			// for the next chunk, so an epoch allocates its row headers
			// once, in the table. A recycled slice larger than its chunk
			// stays the read loop's: the table gets its headers at size.
			switch {
			case s.rows == nil && r.Total > len(r.Rows) && r.Total <= maxPresizedRows:
				s.rows = append(make([][]float64, 0, r.Total), r.Rows...)
				s.w.recycleChunk(r.Rows)
			case s.rows == nil && cap(r.Rows) > len(r.Rows):
				s.rows = append(make([][]float64, 0, len(r.Rows)), r.Rows...)
				s.w.recycleChunk(r.Rows)
			case s.rows == nil:
				s.rows = r.Rows
			default:
				s.rows = append(s.rows, r.Rows...)
				s.w.recycleChunk(r.Rows)
			}
		case proto.KindEpochEnd:
			e := &f.end
			if e.Epoch != s.epoch || e.RowCount != len(s.rows) {
				return s.fail(fmt.Errorf("client: EpochEnd of epoch %d states %d rows; epoch %d arrived with %d",
					e.Epoch, e.RowCount, s.epoch, len(s.rows)))
			}
			t := &Table{
				Columns: s.header.Columns, Rows: s.rows,
				Epoch: e.Epoch, Time: e.Time,
				Complete: e.Complete, Contributing: e.Contributing,
				Members: e.Members, ResponseTime: e.ResponseTime,
				CacheHit: s.header.CacheHit,
				Shared:   s.header.Shared, ClusterSize: s.header.ClusterSize,
				TraceID: s.header.TraceID, Sampled: s.header.Sampled,
			}
			if t.Rows == nil {
				t.Rows = [][]float64{}
			}
			s.rows = nil
			s.epoch++
			return t, nil
		case proto.KindDone:
			s.done = true
			s.finish()
			return nil, io.EOF
		case proto.KindError:
			s.err = &ServerError{Code: f.fail.Code, Msg: f.fail.Msg}
			s.finish()
			return nil, s.err
		}
	}
}

// finish hands the stream's channel back to its connection once the
// terminal frame is in. A stream that ends any other way — closed early,
// failed, timed out — keeps it: a drain may still read from it.
func (s *Stream) finish() {
	s.w.release(s.ch)
	s.ch = nil
}

// cancel asks the server to stop the query and drains the stream's
// demux channel in the background until the server's Done/Error frame
// reclaims the entry (or the connection dies), so an abandoned stream
// never wedges the demux loop.
func (s *Stream) cancel() error {
	s.w.wmu.Lock()
	err := proto.WriteFrame(s.w.conn, proto.KindCancel, proto.Cancel{ID: s.id})
	s.w.wmu.Unlock()
	go func() {
		for {
			select {
			case f := <-s.ch:
				if f.kind == proto.KindDone || f.kind == proto.KindError {
					return
				}
			case <-s.w.done:
				return
			}
		}
	}()
	return err
}

// Close cancels the query (if still running) and releases the stream.
// Discarding a stream without Close leaks its demux entry until the
// query finishes server-side.
func (s *Stream) Close() error {
	if s.done || s.err != nil {
		return nil
	}
	err := s.cancel()
	s.done = true
	return err
}
