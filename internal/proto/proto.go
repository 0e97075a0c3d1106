// Package proto defines the sensjoind wire protocol: a length-prefixed
// frame stream over any reliable byte transport (TCP in practice).
//
// Frame layout (all integers big-endian):
//
//	uint32  length   // of everything after this field: kind + payload
//	byte    kind     // message kind, see the Kind* constants
//	[]byte  payload  // KindRows: the binary layout in rows.go;
//	                 // every other kind: JSON of the kind's message struct
//
// A session opens with Hello/HelloOK, then the client pipelines Query
// frames (each with a client-chosen, session-unique positive ID) and the
// server interleaves per-query response frames, demultiplexed by that
// ID. One query's response stream is:
//
//	Header                      // once, before any rows
//	{ Rows* EpochEnd }          // once per epoch (one-shot: exactly once)
//	Done                        // or Error, which also terminates it
//
// See PROTOCOL.md for the full narrative specification.
package proto

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"sync"
)

// Version is the protocol version spoken by this package. A server
// answers a Hello with a different major version with an Error frame
// (CodeProto) and closes the connection. Version 2 replaced version 1's
// JSON Rows payload with the binary layout in rows.go.
const Version = 2

// MaxFrame bounds one frame's kind+payload size; both sides reject
// larger frames as malformed rather than allocating unboundedly.
const MaxFrame = 8 << 20

// Message kinds. Client-to-server kinds are small, server-to-client
// kinds start at 16; the split is cosmetic (kinds are unique anyway)
// but makes traces easier to read.
const (
	KindHello  byte = 1 // client → server: open a session
	KindQuery  byte = 2 // client → server: submit a query
	KindCancel byte = 3 // client → server: cancel a running query
	KindBye    byte = 4 // client → server: orderly close

	KindHelloOK  byte = 16 // server → client: session accepted
	KindHeader   byte = 17 // server → client: result columns + plan facts
	KindRows     byte = 18 // server → client: a chunk of result rows
	KindEpochEnd byte = 19 // server → client: one epoch's table is complete
	KindDone     byte = 20 // server → client: query finished
	KindError    byte = 21 // server → client: query (or session) failed
)

// Error codes carried by Error frames.
const (
	// CodeProto: the peer violated the protocol (bad frame, bad version,
	// duplicate query ID, ...). The server closes the connection.
	CodeProto = "proto"
	// CodeParse: the query text failed to parse or bind.
	CodeParse = "parse"
	// CodeOverCapacity: admission control rejected the query; retry
	// later or against a less loaded server.
	CodeOverCapacity = "over-capacity"
	// CodeExec: the query failed during execution.
	CodeExec = "exec"
	// CodeShutdown: the server is draining; no new queries are admitted.
	CodeShutdown = "shutdown"
	// CodeTimeout: the query exceeded the server's per-epoch execution
	// deadline; its slot was reclaimed.
	CodeTimeout = "timeout"
)

// Hello opens a session.
type Hello struct {
	Version int
}

// HelloOK accepts a session and states the server's default deployment.
type HelloOK struct {
	Version int
	Session int64
	Nodes   int
	Seed    int64
}

// Query submits one query for execution.
type Query struct {
	// ID is chosen by the client; it must be positive and unused by any
	// other in-flight query of this session.
	ID int64
	// Src is the query text in the sensjoin query language.
	Src string
	// Method selects the join method: "sens" (default) or "external".
	Method string `json:",omitempty"`
	// At is the snapshot time of the first (or only) epoch.
	At float64 `json:",omitempty"`
	// Rounds caps the epochs of a periodic query (default 1; one-shot
	// queries always run exactly one epoch).
	Rounds int `json:",omitempty"`
	// Nodes/Seed override the server's default deployment (0 = default).
	Nodes int   `json:",omitempty"`
	Seed  int64 `json:",omitempty"`
	// TraceID optionally names this query in the server's flight
	// recorder and trace exports. Empty lets the server assign one; the
	// assigned (or echoed) ID comes back on the Header.
	TraceID string `json:",omitempty"`
}

// Header precedes a query's rows.
type Header struct {
	ID      int64
	Columns []string
	// CacheHit reports whether the prepared-query cache served this
	// query's compiled plan.
	CacheHit bool
	// Shared reports shared (grouped) execution; ClusterSize is the
	// number of queries sharing the protocol round (1 when not shared).
	Shared      bool `json:",omitempty"`
	ClusterSize int  `json:",omitempty"`
	// TraceID identifies this query in the server's flight recorder
	// (/debug/queries on the observability port). It echoes the client's
	// Query.TraceID when one was supplied, else it is server-assigned.
	TraceID string `json:",omitempty"`
	// Sampled reports that the server captured a full span tree for this
	// query (per its -trace-sample rate); the tree is served at
	// /debug/queries?trace=<TraceID>.
	Sampled bool `json:",omitempty"`
}

// RowsOf carries a chunk of one epoch's result rows. It is generic over
// the row type so a sender whose tables are a named slice-of-float64
// type can hand its row headers to WriteFrame as they are; receivers
// always decode into Rows.
type RowsOf[R ~[]float64] struct {
	ID    int64
	Epoch int
	// Total is the epoch's row count over all of its chunks, so a
	// receiver can size the table once; 0 means "not stated".
	Total int
	// Rows are equally wide and, in a non-empty chunk, at least one
	// column wide. Cells travel as raw IEEE-754 bits: NaN payloads, ±Inf
	// and -0 arrive exactly as sent.
	Rows []R
}

// Rows is the chunk as every receiver sees it.
type Rows = RowsOf[[]float64]

// EpochEnd closes one epoch's table.
type EpochEnd struct {
	ID    int64
	Epoch int
	// Time is the snapshot time the epoch sampled.
	Time float64
	// RowCount is the epoch's total row count (all Rows chunks).
	RowCount int
	Complete bool
	// Contributing/Members mirror core.Result's node counts.
	Contributing int
	Members      int
	ResponseTime float64
}

// Done terminates a query's response stream.
type Done struct {
	ID     int64
	Epochs int
}

// Error terminates a query's response stream (ID > 0) or reports a
// session-level failure (ID == 0, after which the server closes).
type Error struct {
	ID   int64
	Code string
	Msg  string
}

// Cancel asks the server to stop a running query. The query still
// terminates with Done (epochs so far).
type Cancel struct {
	ID int64
}

// EncodeError reports a message that could not be rendered as a frame:
// nothing was written, and the stream is still in sync. Any other
// WriteFrame error comes from the writer.
type EncodeError struct {
	Kind byte
	Err  error
}

func (e *EncodeError) Error() string {
	return fmt.Sprintf("proto: encode kind %d: %v", e.Kind, e.Err)
}

func (e *EncodeError) Unwrap() error { return e.Err }

// frameBufs recycles encode buffers. A buffer that grew past
// maxPooledBuf is dropped instead, so one huge frame does not pin its
// memory for the life of the process.
var frameBufs = sync.Pool{New: func() any { return new([]byte) }}

const maxPooledBuf = 256 << 10

// WriteFrame encodes v as one frame: the binary layout for a RowsOf
// value or pointer under KindRows, JSON for every other kind. It issues
// a single Write, so callers may serialize concurrent writers with just
// a mutex.
func WriteFrame(w io.Writer, kind byte, v any) error {
	bp := frameBufs.Get().(*[]byte)
	buf := append((*bp)[:0], 0, 0, 0, 0, kind)
	var err error
	rows, isRows := v.(rowsMessage)
	switch {
	case isRows != (kind == KindRows):
		err = fmt.Errorf("kind does not match message type %T", v)
	case isRows:
		buf, err = rows.appendPayload(buf)
	default:
		var payload []byte
		if payload, err = json.Marshal(v); err == nil {
			buf = append(buf, payload...)
		}
	}
	if err == nil && len(buf)-4 > MaxFrame {
		err = fmt.Errorf("frame exceeds %d bytes", MaxFrame)
	}
	if err != nil {
		err = &EncodeError{Kind: kind, Err: err}
	} else {
		binary.BigEndian.PutUint32(buf, uint32(len(buf)-4))
		_, err = w.Write(buf)
	}
	if cap(buf) <= maxPooledBuf {
		*bp = buf
		frameBufs.Put(bp)
	}
	return err
}

// eagerBody is the largest frame body a reader allocates on the word of
// the length prefix alone; it covers a 512-row Rows chunk of a dozen
// columns.
const eagerBody = 64 << 10

// FrameReader reads one connection's frames into one body it owns and
// grows, so a stream of frames costs no allocation once the body fits
// them. A returned payload is valid only until the next call of Next, as
// with bufio.Scanner.Bytes: decode it, or copy what must outlive it.
type FrameReader struct {
	r    io.Reader
	hdr  [4]byte
	body []byte
}

// NewFrameReader returns a FrameReader over r.
func NewFrameReader(r io.Reader) *FrameReader { return &FrameReader{r: r} }

// ReadFrame reads one frame and returns its kind and raw payload, which
// the caller owns. A connection's read loop uses a FrameReader instead.
func ReadFrame(r io.Reader) (byte, []byte, error) {
	return NewFrameReader(r).Next()
}

// Next reads one frame and returns its kind and raw payload.
func (fr *FrameReader) Next() (byte, []byte, error) {
	if _, err := io.ReadFull(fr.r, fr.hdr[:]); err != nil {
		return 0, nil, err
	}
	n := int(binary.BigEndian.Uint32(fr.hdr[:]))
	if n < 1 || n > MaxFrame {
		return 0, nil, fmt.Errorf("proto: frame length %d out of range", n)
	}
	// Like an encode buffer, a body that one huge frame grew past
	// maxPooledBuf is not kept for the life of the connection.
	if cap(fr.body) > maxPooledBuf {
		fr.body = nil
	}
	// A length is only a claim until its bytes arrive: beyond what the
	// body already holds (or eagerBody), it grows by doubling as they do,
	// so four hostile bytes cannot make the reader allocate MaxFrame: it
	// never holds more than eagerBody or twice what arrived.
	if cap(fr.body) < min(n, eagerBody) {
		fr.body = make([]byte, min(n, eagerBody))
	}
	body := fr.body[:min(n, cap(fr.body))]
	for filled := 0; ; {
		if _, err := io.ReadFull(fr.r, body[filled:]); err != nil {
			if err == io.EOF && filled > 0 {
				err = io.ErrUnexpectedEOF
			}
			return 0, nil, err
		}
		filled = len(body)
		if filled == n {
			// The capacity stops at the payload: what an earlier, longer
			// frame left behind it is out of the caller's reach.
			return body[0], body[1:n:n], nil
		}
		fr.body = make([]byte, min(n, 2*filled))
		copy(fr.body, body)
		body = fr.body
	}
}

// Decode parses a frame payload into v: the binary layout when v is a
// *Rows, JSON otherwise.
func Decode(payload []byte, v any) error {
	if r, ok := v.(*Rows); ok {
		return decodeRows(payload, r)
	}
	if err := json.Unmarshal(payload, v); err != nil {
		return fmt.Errorf("proto: bad payload: %w", err)
	}
	return nil
}

// PeekID returns the query ID a payload is addressed to (0 for a
// session-level frame) without decoding the rest of it.
func PeekID(kind byte, payload []byte) (int64, error) {
	if kind == KindRows {
		if len(payload) < rowsHeaderLen {
			return 0, errShortRows
		}
		return int64(binary.BigEndian.Uint64(payload)), nil
	}
	var hdr struct{ ID int64 }
	err := Decode(payload, &hdr)
	return hdr.ID, err
}
