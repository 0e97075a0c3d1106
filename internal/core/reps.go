package core

import (
	"encoding/binary"
	"sync"

	"sensjoin/internal/compress"
	"sensjoin/internal/zorder"
)

// Rep determines how join-attribute tuples are represented on the wire
// during the pre-computation (paper §V). The default is the quadtree;
// RawRep is the SENS_No-Quad baseline of Fig. 16; CompressedRep wraps a
// general-purpose compressor for the §VI-B comparison.
type Rep interface {
	// Name identifies the representation in experiment output.
	Name() string
	// SetBytes returns the wire size of a set of join-attribute keys
	// (used for the filter and for the Selective-Filter-Forwarding
	// memory bound).
	SetBytes(p *plan, keys []zorder.Key) int
	// PayloadBytes returns the wire size of a Join-Attribute-Collection
	// payload: the key set plus, for multiset representations, the raw
	// tuple stream it stands for. When that size is SetBytes of the
	// payload's key set it is read from pl.keysBytes if the sender filled
	// it in, and recorded there otherwise, so the receiver never sizes
	// the same set again.
	PayloadBytes(p *plan, pl *jaPayload) int
}

// jaPayload is the in-flight content of a Join-Attribute-Collection
// message.
type jaPayload struct {
	// keys is the deduplicated key set (the quadtree's content).
	keys []zorder.Key
	// rawCount is the number of join-attribute tuples the payload
	// represents including duplicates (what the raw baseline ships).
	rawCount int
	// covered counts the member nodes this payload covers; it is
	// simulator-side observability (failure detection), not wire data.
	covered int
	// needFull asks the parent to transmit a full filter this round
	// (incremental mode resynchronization); it rides in the header.
	needFull bool
	// keysBytes is Rep.SetBytes(keys) when the sender knows it (0: it
	// does not; no non-empty set has size 0): inherited with an unchanged
	// set, or recorded by PayloadBytes. A parent with no other reporting
	// child inherits set and size in turn.
	keysBytes int
}

// QuadRep is the paper's quadtree representation.
type QuadRep struct{}

// Name implements Rep.
func (QuadRep) Name() string { return "quadtree" }

// SetBytes implements Rep. The size is computed, not serialized: no
// caller of Rep wants the bitstring.
func (QuadRep) SetBytes(p *plan, keys []zorder.Key) int {
	return p.codec.SizeBytes(keys)
}

// PayloadBytes implements Rep.
func (q QuadRep) PayloadBytes(p *plan, pl *jaPayload) int {
	if pl.keysBytes == 0 {
		pl.keysBytes = q.SetBytes(p, pl.keys)
	}
	return pl.keysBytes
}

// RawRep ships join-attribute tuples as plain values, two bytes per
// attribute, without deduplication: the SENS_No-Quad baseline.
type RawRep struct{}

// Name implements Rep.
func (RawRep) Name() string { return "raw" }

// SetBytes implements Rep.
func (RawRep) SetBytes(p *plan, keys []zorder.Key) int {
	return len(keys) * p.rawTupleBytes
}

// PayloadBytes implements Rep.
func (RawRep) PayloadBytes(p *plan, pl *jaPayload) int {
	return pl.rawCount * p.rawTupleBytes
}

// CompressedRep runs a general-purpose compressor over the raw tuple
// stream at every forwarding node (decompress children, concatenate,
// recompress — the repeated work the paper's §V-D argues against).
type CompressedRep struct {
	Codec compress.Codec
}

// Name implements Rep.
func (c CompressedRep) Name() string { return c.Codec.Name() }

// SetBytes implements Rep.
func (c CompressedRep) SetBytes(p *plan, keys []zorder.Key) int {
	return c.compressedBytes(p, keys, len(keys))
}

// PayloadBytes implements Rep.
func (c CompressedRep) PayloadBytes(p *plan, pl *jaPayload) int {
	if pl.rawCount != len(pl.keys) {
		return c.compressedBytes(p, pl.keys, pl.rawCount)
	}
	// No duplicates: the tuple stream is the key set.
	if pl.keysBytes == 0 {
		pl.keysBytes = c.SetBytes(p, pl.keys)
	}
	return pl.keysBytes
}

// compressedBytes is the compressed size of the raw tuple stream. The
// compressor needs real input bytes (unlike the quadtree, its output
// size is not computable without running it), but the input image is
// scratch: it is built in a pooled buffer and dropped after the call.
func (c CompressedRep) compressedBytes(p *plan, keys []zorder.Key, count int) int {
	raw := rawBufPool.Get().(*rawBuf)
	raw.b = appendRawKeyBytes(raw.b[:0], &raw.coords, p, keys, count)
	n := len(c.Codec.Compress(raw.b))
	rawBufPool.Put(raw)
	return n
}

// rawBuf is the scratch of one compressedBytes call.
type rawBuf struct {
	b      []byte
	coords []uint32
}

var rawBufPool = sync.Pool{New: func() any { return new(rawBuf) }}

// appendRawKeyBytes appends the raw wire image of a tuple stream to dst:
// per tuple, each dimension's cell coordinate as a 2-byte little-endian
// value (the native fixed-point form a sensor ADC reports). count >
// len(keys) repeats keys round-robin to model duplicates. coords is
// deinterleaving scratch, grown as needed.
func appendRawKeyBytes(dst []byte, coords *[]uint32, p *plan, keys []zorder.Key, count int) []byte {
	if len(keys) == 0 || count <= 0 {
		return dst
	}
	if cap(*coords) < len(p.grid.Dims) {
		*coords = make([]uint32, len(p.grid.Dims))
	}
	buf := (*coords)[:len(p.grid.Dims)]
	for i := 0; i < count; i++ {
		p.grid.DeinterleaveInto(keys[i%len(keys)], buf)
		for _, c := range buf {
			dst = binary.LittleEndian.AppendUint16(dst, uint16(c))
		}
	}
	return dst
}
