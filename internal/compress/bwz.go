package compress

import (
	"encoding/binary"
	"fmt"

	"sensjoin/internal/bitstream"
)

// BWZ is the bzip2-style block compressor: per block, a Burrows-Wheeler
// Transform, move-to-front, zero run-length coding, and canonical Huffman
// coding with the code-length table serialized in the header. Like bzip2
// it pays a per-block table overhead, which is why it loses to "no
// compression" on the small payloads sensor nodes forward (paper §VI-B).
type BWZ struct {
	// BlockSize bounds the bytes per BWT block; 0 means the 16 KiB
	// default. Decompress refuses a block longer than it.
	BlockSize int
}

const bwzDefaultBlock = 16 * 1024

var bwzMagic = [4]byte{'B', 'W', 'Z', '1'}

// Name implements Codec.
func (BWZ) Name() string { return "bwz(bzip2-like)" }

// bwzScratch is the working set of one Compress call, pooled between
// calls (one is kept across collections, see keptPool) and grown
// geometrically: every forwarding node of a BWZ-backed round compresses
// one small payload.
type bwzScratch struct {
	bwt bwtScratch
	// last is a block's BWT last column, then its MTF code in place.
	last []byte
	syms []uint16
	freq [alphabetLen]int
	enc  huffEncoder
	// w writes the length table, then the symbol stream.
	w bitstream.Writer
}

var bwzPool keptPool[bwzScratch]

func getBWZScratch() *bwzScratch {
	if s := bwzPool.get(); s != nil {
		return s
	}
	return new(bwzScratch)
}

func (z BWZ) blockSize() int {
	if z.BlockSize <= 0 {
		return bwzDefaultBlock
	}
	return z.BlockSize
}

// Compress implements Codec.
func (z BWZ) Compress(dst, data []byte) []byte {
	block := z.blockSize()
	s := getBWZScratch()
	dst = append(dst, bwzMagic[:]...)
	dst = binary.AppendUvarint(dst, uint64(len(data)))
	for start := 0; start < len(data); start += block {
		dst = s.appendBlock(dst, data[start:min(start+block, len(data))])
	}
	bwzPool.put(s)
	return dst
}

func (s *bwzScratch) appendBlock(out, data []byte) []byte {
	s.last = grow(s.last, len(data))
	primary := s.bwt.transform(data, s.last)
	mtfEncode(s.last)
	s.syms = rle0Encode(s.syms[:0], s.last)
	clear(s.freq[:])
	for _, sym := range s.syms {
		s.freq[sym]++
	}
	s.enc.build(s.freq[:])
	out = binary.AppendUvarint(out, uint64(len(data)))
	out = binary.AppendUvarint(out, uint64(primary))
	out = appendLengthTable(out, &s.w, s.enc.lengths[:])
	s.w.Reset()
	for _, sym := range s.syms {
		s.enc.encode(&s.w, int(sym))
	}
	out = binary.AppendUvarint(out, uint64(s.w.Len()))
	return append(out, s.w.Bytes()...)
}

// appendLengthTable serializes the code-length table through w: lengths
// are 4-bit values; a zero nibble is followed by a byte-sized run count
// of zero lengths, which keeps sparse alphabets cheap.
func appendLengthTable(out []byte, w *bitstream.Writer, lengths []byte) []byte {
	w.Reset()
	for i := 0; i < len(lengths); {
		if lengths[i] == 0 {
			run := 0
			for i < len(lengths) && lengths[i] == 0 && run < 255 {
				run++
				i++
			}
			w.WriteBits(0, 4)
			w.WriteBits(uint64(run), 8)
			continue
		}
		w.WriteBits(uint64(lengths[i]), 4)
		i++
	}
	out = binary.AppendUvarint(out, uint64(w.Len()))
	return append(out, w.Bytes()...)
}

// readBitCount reads a uvarint bit count at pos and checks that its
// bytes fit in data: it returns the count, the position after the
// uvarint and the byte length.
func readBitCount(data []byte, pos int, what string) (bits, next, byteLen int, err error) {
	v, n := binary.Uvarint(data[pos:])
	if n <= 0 {
		return 0, 0, 0, fmt.Errorf("compress: bwz bad %s size", what)
	}
	pos += n
	if v > uint64(8*(len(data)-pos)) {
		return 0, 0, 0, fmt.Errorf("compress: bwz truncated %s", what)
	}
	return int(v), pos, (int(v) + 7) / 8, nil
}

func readLengthTable(data []byte, pos int) (lengths []byte, next int, err error) {
	bits, pos, byteLen, err := readBitCount(data, pos, "length table")
	if err != nil {
		return nil, 0, err
	}
	r := bitstream.NewReader(data[pos:pos+byteLen], bits)
	lengths = make([]byte, 0, alphabetLen)
	for r.Remaining() >= 4 && len(lengths) < alphabetLen {
		v := byte(r.ReadBits(4))
		if v == 0 {
			run := int(r.ReadBits(8))
			if r.Err() != nil || run == 0 {
				return nil, 0, fmt.Errorf("compress: bwz bad zero run in length table")
			}
			for j := 0; j < run && len(lengths) < alphabetLen; j++ {
				lengths = append(lengths, 0)
			}
			continue
		}
		lengths = append(lengths, v)
	}
	if r.Err() != nil {
		return nil, 0, r.Err()
	}
	for len(lengths) < alphabetLen {
		lengths = append(lengths, 0)
	}
	return lengths, pos + byteLen, nil
}

// bwzMinBlockBytes is the least input a block takes: one byte each for
// its length, primary index, length-table size and stream size, and at
// least one byte of length table and of stream.
const bwzMinBlockBytes = 6

// Decompress implements Codec. It trusts no header: the stream's length
// must fit in as many blocks of at most the block size as the rest of
// the input can hold, each block's length must fit in the block size and
// in what is left of the stream, and every zero run in what is left of
// its block. So what Decompress allocates is bounded by what the input
// accounts for.
func (z BWZ) Decompress(data []byte) ([]byte, error) {
	if len(data) < 4 || [4]byte(data[:4]) != bwzMagic {
		return nil, fmt.Errorf("compress: not a bwz stream")
	}
	block := uint64(z.blockSize())
	pos := 4
	origLen, n := binary.Uvarint(data[pos:])
	if n <= 0 {
		return nil, fmt.Errorf("compress: bwz bad length header")
	}
	pos += n
	blocks := origLen / block
	if origLen%block != 0 {
		blocks++
	}
	if blocks > uint64(len(data)-pos)/bwzMinBlockBytes {
		return nil, fmt.Errorf("compress: bwz length %d exceeds what %d bytes of blocks hold", origLen, len(data)-pos)
	}
	// out grows with the blocks decoded, not with the header's claim.
	out := make([]byte, 0, min(origLen, block))
	var syms []uint16
	var mtf []byte
	for uint64(len(out)) < origLen {
		blockLen, n := binary.Uvarint(data[pos:])
		if n <= 0 {
			return nil, fmt.Errorf("compress: bwz bad block length")
		}
		if blockLen == 0 || blockLen > block || blockLen > origLen-uint64(len(out)) {
			return nil, fmt.Errorf("compress: bwz block length %d out of range", blockLen)
		}
		pos += n
		primary, n := binary.Uvarint(data[pos:])
		if n <= 0 {
			return nil, fmt.Errorf("compress: bwz bad primary index")
		}
		if primary >= blockLen {
			return nil, fmt.Errorf("compress: bwz primary index out of range")
		}
		pos += n
		lengths, next, err := readLengthTable(data, pos)
		if err != nil {
			return nil, err
		}
		var bits, byteLen int
		if bits, pos, byteLen, err = readBitCount(data, next, "block"); err != nil {
			return nil, err
		}
		dec := newHuffDecoder(lengths)
		r := bitstream.NewReader(data[pos:pos+byteLen], bits)
		pos += byteLen
		syms = syms[:0]
		for {
			s, err := dec.decode(r)
			if err != nil {
				return nil, err
			}
			syms = append(syms, uint16(s))
			if s == symEOB {
				break
			}
		}
		if mtf, err = rle0Decode(mtf[:0], syms, int(blockLen)); err != nil {
			return nil, err
		}
		if uint64(len(mtf)) != blockLen {
			return nil, fmt.Errorf("compress: bwz block length mismatch: %d vs %d", len(mtf), blockLen)
		}
		mtfDecode(mtf)
		out = append(out, unbwt(mtf, int(primary))...)
	}
	return out, nil
}
