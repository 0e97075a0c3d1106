package compress

import (
	"bytes"
	"fmt"
)

// mtfEncode applies the move-to-front transform in place: each byte is
// replaced by its current index in a recency list, and moved to the
// front. After a BWT, runs of equal bytes become runs of zeros.
func mtfEncode(data []byte) {
	var table [256]byte
	for i := range table {
		table[i] = byte(i)
	}
	for i, b := range data {
		j := bytes.IndexByte(table[:], b)
		data[i] = byte(j)
		copy(table[1:j+1], table[:j])
		table[0] = b
	}
}

// mtfDecode inverts mtfEncode in place.
func mtfDecode(data []byte) {
	var table [256]byte
	for i := range table {
		table[i] = byte(i)
	}
	for i, j := range data {
		b := table[j]
		data[i] = b
		copy(table[1:int(j)+1], table[:j])
		table[0] = b
	}
}

// RLE0 symbols: zero runs are written in bijective base 2 using runA (+1)
// and runB (+2) digits, as in bzip2; a literal byte b becomes symbol b+2.
const (
	symRunA   = 0
	symRunB   = 1
	symOffset = 2
	// symEOB terminates a block's symbol stream.
	symEOB      = 258
	alphabetLen = 259
)

// rle0Encode appends the RLE0 symbol stream of MTF output to dst.
func rle0Encode(dst []uint16, data []byte) []uint16 {
	run := 0
	for _, b := range data {
		if b == 0 {
			run++
			continue
		}
		dst = appendRun(dst, run)
		run = 0
		dst = append(dst, uint16(b)+symOffset)
	}
	dst = appendRun(dst, run)
	return append(dst, symEOB)
}

// appendRun appends the runA/runB digits of a run of n zeros.
func appendRun(dst []uint16, n int) []uint16 {
	for n > 0 {
		if n&1 == 1 {
			dst = append(dst, symRunA)
			n = (n - 1) / 2
		} else {
			dst = append(dst, symRunB)
			n = (n - 2) / 2
		}
	}
	return dst
}

// rle0Decode inverts rle0Encode, appending to dst; the input ends at its
// first symEOB (or at its end). It refuses a stream that would take dst
// past limit bytes before producing them, so a run's doubling digits
// cannot ask for more than the block holds.
func rle0Decode(dst []byte, syms []uint16, limit int) ([]byte, error) {
	run, digit := 0, 1
	for _, s := range syms {
		if s == symRunA || s == symRunB {
			if digit > limit {
				return nil, fmt.Errorf("compress: bwz zero run exceeds the block")
			}
			run += digit << s // runA adds the digit, runB twice it
			digit <<= 1
			if run > limit-len(dst) {
				return nil, fmt.Errorf("compress: bwz zero run exceeds the block")
			}
			continue
		}
		dst = append(dst, make([]byte, run)...)
		run, digit = 0, 1
		if s == symEOB {
			return dst, nil
		}
		if len(dst) >= limit {
			return nil, fmt.Errorf("compress: bwz literal exceeds the block")
		}
		dst = append(dst, byte(s-symOffset))
	}
	return append(dst, make([]byte, run)...), nil
}
