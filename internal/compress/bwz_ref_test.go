package compress

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"

	"sensjoin/internal/bitstream"
)

// compressReference is BWZ.Compress as it was before its stages wrote
// into pooled scratch: every stage allocates its output, the rotation
// sort is the comparison doubling of bwtReference and the code lengths
// come from buildLengthsReference. It is the oracle for the compressed
// bytes, and with them the sizes the §VI-B comparison charges.
func compressReference(z BWZ, data []byte) []byte {
	block := z.BlockSize
	if block <= 0 {
		block = bwzDefaultBlock
	}
	out := append([]byte(nil), bwzMagic[:]...)
	out = binary.AppendUvarint(out, uint64(len(data)))
	for start := 0; start < len(data); start += block {
		end := start + block
		if end > len(data) {
			end = len(data)
		}
		out = appendBlockReference(out, data[start:end])
	}
	return out
}

func appendBlockReference(out, data []byte) []byte {
	last, primary := bwtReference(data)
	syms := rle0EncodeReference(mtfEncodeReference(last))
	freq := make([]int, alphabetLen)
	for _, s := range syms {
		freq[s]++
	}
	lengths := huffCodeLengthsReference(freq)
	codes := canonicalCodesReference(lengths)
	w := bitstream.NewWriter(len(syms) * 8)
	for _, s := range syms {
		w.WriteBits(uint64(codes[s]), int(lengths[s]))
	}
	out = binary.AppendUvarint(out, uint64(len(data)))
	out = binary.AppendUvarint(out, uint64(primary))
	out = appendLengthTableReference(out, lengths)
	out = binary.AppendUvarint(out, uint64(w.Len()))
	return append(out, w.Bytes()...)
}

func appendLengthTableReference(out []byte, lengths []byte) []byte {
	w := bitstream.NewWriter(len(lengths) * 4)
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

func mtfEncodeReference(data []byte) []byte {
	var table [256]byte
	for i := range table {
		table[i] = byte(i)
	}
	out := make([]byte, len(data))
	for i, b := range data {
		var j int
		for table[j] != b {
			j++
		}
		out[i] = byte(j)
		copy(table[1:j+1], table[:j])
		table[0] = b
	}
	return out
}

func rle0EncodeReference(data []byte) []uint16 {
	out := make([]uint16, 0, len(data)/2+8)
	run := 0
	flush := func() {
		for n := run; n > 0; {
			if n&1 == 1 {
				out = append(out, symRunA)
				n = (n - 1) / 2
			} else {
				out = append(out, symRunB)
				n = (n - 2) / 2
			}
		}
		run = 0
	}
	for _, b := range data {
		if b == 0 {
			run++
			continue
		}
		flush()
		out = append(out, uint16(b)+symOffset)
	}
	flush()
	return append(out, symEOB)
}

func huffCodeLengthsReference(freq []int) []byte {
	lengths := make([]byte, len(freq))
	f := append([]int(nil), freq...)
	for {
		buildLengthsReference(f, lengths)
		maxLen := byte(0)
		for _, l := range lengths {
			if l > maxLen {
				maxLen = l
			}
		}
		if maxLen <= maxCodeLen {
			return lengths
		}
		for i, v := range f {
			if v > 0 {
				f[i] = v/2 + 1
			}
		}
	}
}

func canonicalCodesReference(lengths []byte) []uint32 {
	codes := make([]uint32, len(lengths))
	var countPerLen [maxCodeLen + 1]uint32
	for _, l := range lengths {
		if l > 0 {
			countPerLen[l]++
		}
	}
	var nextCode [maxCodeLen + 1]uint32
	code := uint32(0)
	for l := 1; l <= maxCodeLen; l++ {
		code = (code + countPerLen[l-1]) << 1
		nextCode[l] = code
	}
	for sym, l := range lengths {
		if l > 0 {
			codes[sym] = nextCode[l]
			nextCode[l]++
		}
	}
	return codes
}

// bwzInputs spans what the §VI-B comparison compresses and what breaks
// a sort: correlated sensor images, noise over wide and tiny alphabets,
// a key set repeated round-robin (whole and cut short), constant blocks
// and blocks whose Huffman tree needs flattening.
func bwzInputs() [][]byte {
	rng := rand.New(rand.NewSource(50))
	var out [][]byte
	for len(out) < 2200 {
		n := 1 + rng.Intn(600)
		if len(out)%50 == 0 {
			n = 1 + rng.Intn(20000)
		}
		switch len(out) % 7 {
		case 0:
			out = append(out, sensorPayload(n))
		case 1:
			noise := make([]byte, n)
			rng.Read(noise)
			out = append(out, noise)
		case 2:
			small := make([]byte, n)
			for i := range small {
				small[i] = byte(rng.Intn(1 + rng.Intn(4)))
			}
			out = append(out, small)
		case 3: // rawCount a multiple of the key count: periodic
			unit := sensorPayload(6 * (1 + rng.Intn(40)))
			out = append(out, bytes.Repeat(unit, 2+rng.Intn(6)))
		case 4: // rawCount not a multiple: a cut-short repeat
			unit := sensorPayload(6 * (1 + rng.Intn(40)))
			rep := bytes.Repeat(unit, 2+rng.Intn(6))
			out = append(out, rep[:len(rep)-6*(1+rng.Intn(len(unit)/6))])
		case 5:
			out = append(out, bytes.Repeat([]byte{byte(rng.Intn(256))}, n))
		default: // Fibonacci-like symbol counts force deep trees
			var fib []byte
			a, b := 1, 1
			for sym := 0; len(fib) < 4000 && sym < 256; sym++ {
				fib = append(fib, bytes.Repeat([]byte{byte(sym)}, a)...)
				a, b = b, a+b
			}
			rng.Shuffle(len(fib), func(i, j int) { fib[i], fib[j] = fib[j], fib[i] })
			out = append(out, fib[:min(len(fib), n+200)])
		}
	}
	return out
}

// Compress writes the reference's bytes on every input, at every block
// size, appending behind whatever dst already holds.
func TestBWZMatchesReference(t *testing.T) {
	inputs := bwzInputs()
	sizes := []int{0, 64, 1000, 4096}
	prefix := []byte("held")
	var dst []byte
	tied := 0
	for i, data := range inputs {
		z := BWZ{BlockSize: sizes[i%len(sizes)]}
		for start := 0; start < len(data); start += z.blockSize() {
			if hasProperPeriod(data[start:min(start+z.blockSize(), len(data))]) {
				tied++
			}
		}
		dst = z.Compress(append(dst[:0], prefix...), data)
		want := compressReference(z, data)
		if !bytes.HasPrefix(dst, prefix) || !bytes.Equal(dst[len(prefix):], want) {
			t.Fatalf("input %d (%d B, block %d): output differs from the reference (%d vs %d B)",
				i, len(data), z.BlockSize, len(dst)-len(prefix), len(want))
		}
	}
	if tied < len(inputs)/10 {
		t.Fatalf("only %d blocks of %d inputs are periodic: the tie order is barely exercised", tied, len(inputs))
	}
}
