package proto

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// Control payloads (every kind but Rows) are fixed big-endian layouts
// of their message's fields in declaration order:
//
//	int, int64  int64                        // an int must fit the receiver's int
//	float64     uint64                       // math.Float64bits: NaN and ±Inf travel
//	bool        byte                         // 0 or 1; anything else is malformed
//	string      uint32 length, then bytes
//	[]string    uint32 count, then count strings
//
// Every kind that names a query starts with its int64 ID, so PeekID
// reads offset 0. The payload must end where the layout does. The
// layouts, field by field, are tabled in PROTOCOL.md.

// message is what WriteFrame encodes: every message type, by value or
// by pointer. kind is the frame kind the message travels under.
type message interface {
	kind() byte
	appendPayload(buf []byte) ([]byte, error)
}

// Bye closes a session in order. Its payload is empty.
type Bye struct{}

func (Hello) kind() byte     { return KindHello }
func (HelloOK) kind() byte   { return KindHelloOK }
func (Query) kind() byte     { return KindQuery }
func (Cancel) kind() byte    { return KindCancel }
func (Bye) kind() byte       { return KindBye }
func (Header) kind() byte    { return KindHeader }
func (RowsOf[R]) kind() byte { return KindRows }
func (EpochEnd) kind() byte  { return KindEpochEnd }
func (Done) kind() byte      { return KindDone }
func (Error) kind() byte     { return KindError }

func (m Hello) appendPayload(b []byte) ([]byte, error) {
	return putInt(b, int64(m.Version)), nil
}

func (m HelloOK) appendPayload(b []byte) ([]byte, error) {
	b = putInt(b, int64(m.Version))
	b = putInt(b, m.Session)
	b = putInt(b, int64(m.Nodes))
	return putInt(b, m.Seed), nil
}

func (m Query) appendPayload(b []byte) ([]byte, error) {
	b = putInt(b, m.ID)
	b = putString(b, m.Src)
	b = putString(b, m.Method)
	b = putFloat(b, m.At)
	b = putInt(b, int64(m.Rounds))
	b = putInt(b, int64(m.Nodes))
	b = putInt(b, m.Seed)
	return putString(b, m.TraceID), nil
}

func (m Cancel) appendPayload(b []byte) ([]byte, error) { return putInt(b, m.ID), nil }

func (Bye) appendPayload(b []byte) ([]byte, error) { return b, nil }

func (m Header) appendPayload(b []byte) ([]byte, error) {
	b = putInt(b, m.ID)
	b = binary.BigEndian.AppendUint32(b, uint32(len(m.Columns)))
	for _, c := range m.Columns {
		b = putString(b, c)
	}
	b = putBool(b, m.CacheHit)
	b = putBool(b, m.Shared)
	b = putInt(b, int64(m.ClusterSize))
	b = putString(b, m.TraceID)
	return putBool(b, m.Sampled), nil
}

func (m EpochEnd) appendPayload(b []byte) ([]byte, error) {
	b = putInt(b, m.ID)
	b = putInt(b, int64(m.Epoch))
	b = putFloat(b, m.Time)
	b = putInt(b, int64(m.RowCount))
	b = putBool(b, m.Complete)
	b = putInt(b, int64(m.Contributing))
	b = putInt(b, int64(m.Members))
	return putFloat(b, m.ResponseTime), nil
}

func (m Done) appendPayload(b []byte) ([]byte, error) {
	return putInt(putInt(b, m.ID), int64(m.Epochs)), nil
}

func (m Error) appendPayload(b []byte) ([]byte, error) {
	b = putInt(b, m.ID)
	b = putString(b, m.Code)
	return putString(b, m.Msg), nil
}

func putInt(b []byte, v int64) []byte { return binary.BigEndian.AppendUint64(b, uint64(v)) }

func putFloat(b []byte, v float64) []byte {
	return binary.BigEndian.AppendUint64(b, math.Float64bits(v))
}

func putBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// putString writes a string's length and bytes. A string or column
// list too long for its uint32 prefix makes the frame longer than
// MaxFrame, which WriteFrame refuses before anything is written.
func putString(b []byte, s string) []byte {
	b = binary.BigEndian.AppendUint32(b, uint32(len(s)))
	return append(b, s...)
}

// reader takes a control payload apart front to back. Its first failure
// sticks: every later read returns a zero value. A layout is read twice:
// dry, to check the whole payload without allocating anything, and then
// for real, when every length is known to be good. The real pass makes
// one string of the payload on the first non-empty string it reads and
// slices every string out of it.
type reader struct {
	p    []byte
	off  int
	err  error
	dry  bool
	text string
}

var errShortControl = errors.New("proto: payload shorter than its layout")

// take returns the next n bytes, nil once the payload has failed.
func (r *reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n > len(r.p)-r.off {
		r.err = errShortControl
		return nil
	}
	r.off += n
	return r.p[r.off-n : r.off]
}

func (r *reader) int64() int64 {
	if b := r.take(8); b != nil {
		return int64(binary.BigEndian.Uint64(b))
	}
	return 0
}

func (r *reader) int() int {
	v := r.int64()
	if int64(int(v)) != v && r.err == nil {
		r.err = fmt.Errorf("proto: integer %d does not fit an int", v)
	}
	return int(v)
}

func (r *reader) float() float64 { return math.Float64frombits(uint64(r.int64())) }

func (r *reader) bool() bool {
	b := r.take(1)
	if b == nil {
		return false
	}
	if b[0] > 1 {
		r.err = fmt.Errorf("proto: bool byte %d is neither 0 nor 1", b[0])
	}
	return b[0] == 1
}

// count reads a length or a list count, which cannot exceed the bytes
// left after it (so it fits an int on every platform).
func (r *reader) count() int {
	b := r.take(4)
	if b == nil {
		return 0
	}
	n := binary.BigEndian.Uint32(b)
	if uint64(n) > uint64(len(r.p)-r.off) {
		r.err = fmt.Errorf("proto: count %d beyond the %d bytes left", n, len(r.p)-r.off)
		return 0
	}
	return int(n)
}

func (r *reader) string() string {
	n := r.count()
	if r.take(n) == nil || n == 0 || r.dry {
		return ""
	}
	if r.text == "" {
		r.text = string(r.p)
	}
	return r.text[r.off-n : r.off]
}

// strings reads a count and that many strings. The count is checked
// against the bytes left before anything is allocated: each string
// takes at least its four length bytes.
func (r *reader) strings() []string {
	n := r.count()
	if r.err == nil && n > (len(r.p)-r.off)/4 {
		r.err = fmt.Errorf("proto: %d strings claimed in %d bytes", n, len(r.p)-r.off)
	}
	if r.err != nil || n == 0 {
		return nil
	}
	var out []string
	if !r.dry {
		out = make([]string, n)
	}
	for i := 0; i < n && r.err == nil; i++ {
		s := r.string()
		if out != nil {
			out[i] = s
		}
	}
	return out
}

// end reports the payload's first failure, or bytes left after the
// layout.
func (r *reader) end() error {
	if r.err == nil && r.off != len(r.p) {
		r.err = fmt.Errorf("proto: %d bytes after the end of the layout", len(r.p)-r.off)
	}
	return r.err
}

// readInto reads the layout of v's message type, and on the real pass
// stores the message in *v. It reports false for a v that points to no
// control message.
func readInto(r *reader, v any) bool {
	switch m := v.(type) {
	case *Hello:
		set(r, m, Hello{Version: r.int()})
	case *HelloOK:
		set(r, m, HelloOK{Version: r.int(), Session: r.int64(), Nodes: r.int(), Seed: r.int64()})
	case *Query:
		set(r, m, Query{
			ID: r.int64(), Src: r.string(), Method: r.string(), At: r.float(),
			Rounds: r.int(), Nodes: r.int(), Seed: r.int64(), TraceID: r.string(),
		})
	case *Cancel:
		set(r, m, Cancel{ID: r.int64()})
	case *Bye:
	case *Header:
		set(r, m, Header{
			ID: r.int64(), Columns: r.strings(), CacheHit: r.bool(), Shared: r.bool(),
			ClusterSize: r.int(), TraceID: r.string(), Sampled: r.bool(),
		})
	case *EpochEnd:
		set(r, m, EpochEnd{
			ID: r.int64(), Epoch: r.int(), Time: r.float(), RowCount: r.int(), Complete: r.bool(),
			Contributing: r.int(), Members: r.int(), ResponseTime: r.float(),
		})
	case *Done:
		set(r, m, Done{ID: r.int64(), Epochs: r.int()})
	case *Error:
		set(r, m, Error{ID: r.int64(), Code: r.string(), Msg: r.string()})
	default:
		return false
	}
	return true
}

func set[T any](r *reader, m *T, v T) {
	if !r.dry {
		*m = v
	}
}
