// Package bitstream provides MSB-first bit-level readers and writers.
//
// The quadtree wire format of SENS-Join (paper §V-C, Fig. 9) is a dense
// bitstring of index nodes, quadrant masks and relative point encodings;
// this package is the substrate it is serialized with. Bits are packed
// most-significant-bit first so that a lexicographic comparison of the
// produced bytes matches a lexicographic comparison of the bit sequences.
package bitstream

import "fmt"

// Writer accumulates bits MSB-first into a byte slice. Pending bits are
// buffered in a uint64 accumulator and flushed to the byte buffer a
// whole byte at a time, so WriteBits costs a few shifts instead of one
// buffer access per bit.
// The zero value is ready to use.
type Writer struct {
	buf   []byte
	nbits int
	// acc holds the trailing pend (< 8) bits, MSB-first in its low bits.
	acc  uint64
	pend int
	// tail is set while buf ends in a materialized partial byte (see
	// Bytes); the next write peels it off and resumes from acc.
	tail bool
}

// NewWriter returns an empty writer with capacity for sizeHint bits.
func NewWriter(sizeHint int) *Writer {
	return &Writer{buf: make([]byte, 0, (sizeHint+7)/8)}
}

// unmaterialize drops the partial byte a Bytes call appended; its bits
// still live in acc.
func (w *Writer) unmaterialize() {
	if w.tail {
		w.buf = w.buf[:len(w.buf)-1]
		w.tail = false
	}
}

// WriteBit appends a single bit (any non-zero value counts as 1).
func (w *Writer) WriteBit(b uint) {
	w.unmaterialize()
	bit := uint64(0)
	if b != 0 {
		bit = 1
	}
	w.acc = w.acc<<1 | bit
	w.pend++
	w.nbits++
	if w.pend == 8 {
		w.buf = append(w.buf, byte(w.acc))
		w.acc, w.pend = 0, 0
	}
}

// WriteBits appends the n least-significant bits of v, most significant
// of those first. n must be in [0, 64].
func (w *Writer) WriteBits(v uint64, n int) {
	if n < 0 || n > 64 {
		panic(fmt.Sprintf("bitstream: WriteBits with n=%d", n))
	}
	w.unmaterialize()
	// Chunks of at most 32 bits keep acc within 64 bits (pend < 8).
	for n > 32 {
		n -= 32
		w.writeChunk(uint64(uint32(v>>uint(n))), 32)
	}
	if n > 0 {
		w.writeChunk(v&(1<<uint(n)-1), n)
	}
}

// writeChunk appends the n (<= 32) low bits of v, flushing whole bytes.
func (w *Writer) writeChunk(v uint64, n int) {
	acc := w.acc<<uint(n) | v
	k := w.pend + n
	for k >= 8 {
		k -= 8
		w.buf = append(w.buf, byte(acc>>uint(k)))
	}
	w.acc = acc & (1<<uint(k) - 1)
	w.pend = k
	w.nbits += n
}

// Len returns the number of bits written so far.
func (w *Writer) Len() int { return w.nbits }

// Bytes returns the packed bits; trailing bits of the last byte are zero.
// The returned slice aliases the writer's buffer.
func (w *Writer) Bytes() []byte {
	if w.pend > 0 && !w.tail {
		w.buf = append(w.buf, byte(w.acc<<uint(8-w.pend)))
		w.tail = true
	}
	return w.buf
}

// Reset clears the writer for reuse, keeping the allocated buffer.
func (w *Writer) Reset() {
	w.buf = w.buf[:0]
	w.nbits = 0
	w.acc, w.pend = 0, 0
	w.tail = false
}

// Reader consumes bits MSB-first from a byte slice.
type Reader struct {
	buf   []byte
	pos   int // bit position
	nbits int // total available bits
	err   error
}

// NewReader returns a reader over the first nbits bits of buf.
// If nbits is negative, all of buf (8*len) is available.
func NewReader(buf []byte, nbits int) *Reader {
	if nbits < 0 || nbits > 8*len(buf) {
		nbits = 8 * len(buf)
	}
	return &Reader{buf: buf, nbits: nbits}
}

// Reset points the reader at the first nbits bits of buf, clearing any
// recorded error. If nbits is negative, all of buf (8*len) is available.
// It allows a zero-value or stack-allocated Reader to be reused without
// heap allocation.
func (r *Reader) Reset(buf []byte, nbits int) {
	if nbits < 0 || nbits > 8*len(buf) {
		nbits = 8 * len(buf)
	}
	r.buf = buf
	r.nbits = nbits
	r.pos = 0
	r.err = nil
}

// ErrShortRead is recorded when a read runs past the end of the stream.
var ErrShortRead = fmt.Errorf("bitstream: read past end of stream")

// ReadBit returns the next bit, or 0 with a recorded error when exhausted.
func (r *Reader) ReadBit() uint {
	if r.pos >= r.nbits {
		r.err = ErrShortRead
		return 0
	}
	b := uint(r.buf[r.pos/8]>>(7-uint(r.pos%8))) & 1
	r.pos++
	return b
}

// ReadBits returns the next n bits as the low bits of a uint64.
func (r *Reader) ReadBits(n int) uint64 {
	if n < 0 || n > 64 {
		panic(fmt.Sprintf("bitstream: ReadBits with n=%d", n))
	}
	var v uint64
	for i := 0; i < n; i++ {
		v = v<<1 | uint64(r.ReadBit())
	}
	return v
}

// Remaining reports how many bits are left to read.
func (r *Reader) Remaining() int { return r.nbits - r.pos }

// Pos returns the current bit position.
func (r *Reader) Pos() int { return r.pos }

// Err returns the first error encountered (only ErrShortRead is possible).
func (r *Reader) Err() error { return r.err }
