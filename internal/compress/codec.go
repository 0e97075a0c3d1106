// Package compress provides the general-purpose compression baselines of
// the paper's §VI-B experiment: the quadtree representation is compared
// against zlib (LZ77 + Huffman) and bzip2 (Burrows-Wheeler Transform +
// MTF + Huffman).
//
// zlib wraps the standard library. The Go standard library only ships a
// bzip2 *decompressor*, so BWZ is our own BWT + move-to-front + run
// length + canonical-Huffman block compressor — the same pipeline family
// as bzip2, with the same characteristic per-block table overhead that
// makes it lose on small payloads (exactly the behaviour the experiment
// demonstrates).
//
// The simulator compresses one payload per forwarding node, so the
// codecs are built for many small calls: Compress appends to a buffer
// the caller keeps, zlib writers and BWZ's working arrays are pooled,
// and BWZ sorts a block's rotations with counting-sort prefix doubling
// in O(n log n). Only a periodic block, whose equal rotations need the
// reference transform's tie order, goes through comparison doubling.
package compress

import (
	"bytes"
	"compress/zlib"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
)

// Codec compresses and decompresses byte slices.
type Codec interface {
	// Name identifies the codec in experiment output.
	Name() string
	// Compress appends the compressed form of data to dst and returns
	// the extended slice, as the append built-in does.
	Compress(dst, data []byte) []byte
	// Decompress inverts Compress.
	Decompress(data []byte) ([]byte, error)
}

// Zlib is the stdlib zlib codec (the library form of gzip, as the paper
// puts it).
type Zlib struct {
	// Level is the zlib compression level; 0 means best compression,
	// matching the paper's "highly optimized" upper-bound framing.
	Level int
}

// Name implements Codec.
func (Zlib) Name() string { return "zlib" }

// zlibState is one reusable compressor with the buffer it writes to. A
// fresh zlib.Writer allocates about 1.2 MB of match tables, and the
// simulator compresses one small payload per forwarding node, so writers
// are kept per level and Reset between payloads (Reset restores exactly
// the state of a new writer: the output is bit-identical).
type zlibState struct {
	w   *zlib.Writer
	buf bytes.Buffer
}

// zlibPools holds idle compressors, indexed by level - zlib.HuffmanOnly.
var zlibPools [zlib.BestCompression - zlib.HuffmanOnly + 1]keptPool[zlibState]

// keptPool is a sync.Pool that keeps one idle item beyond the garbage
// collector's reach. A sync.Pool empties over two collections, and the
// experiment suite collects many times between two E8 runs, so each run
// rebuilt its zlib writer (≈1.2 MB) and its BWZ arrays; the kept item
// costs one writer per level used and one BWZ working set. get returns
// nil when both are empty.
type keptPool[T any] struct {
	kept atomic.Pointer[T]
	pool sync.Pool
}

func (p *keptPool[T]) get() *T {
	if it := p.kept.Swap(nil); it != nil {
		return it
	}
	it, _ := p.pool.Get().(*T)
	return it
}

func (p *keptPool[T]) put(it *T) {
	if !p.kept.CompareAndSwap(nil, it) {
		p.pool.Put(it)
	}
}

// Compress implements Codec.
func (z Zlib) Compress(dst, data []byte) []byte {
	level := z.Level
	if level == 0 {
		level = zlib.BestCompression
	}
	if level < zlib.HuffmanOnly || level > zlib.BestCompression {
		panic(fmt.Sprintf("compress: zlib level %d: invalid compression level", level))
	}
	pool := &zlibPools[level-zlib.HuffmanOnly]
	st := pool.get()
	if st == nil {
		st = new(zlibState)
		w, err := zlib.NewWriterLevel(&st.buf, level)
		if err != nil {
			panic(fmt.Sprintf("compress: zlib level %d: %v", level, err))
		}
		st.w = w
	} else {
		st.buf.Reset()
		st.w.Reset(&st.buf)
	}
	if _, err := st.w.Write(data); err != nil {
		panic(fmt.Sprintf("compress: zlib write: %v", err))
	}
	if err := st.w.Close(); err != nil {
		panic(fmt.Sprintf("compress: zlib close: %v", err))
	}
	dst = append(dst, st.buf.Bytes()...)
	pool.put(st)
	return dst
}

// Decompress implements Codec.
func (Zlib) Decompress(data []byte) ([]byte, error) {
	r, err := zlib.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("compress: zlib open: %w", err)
	}
	defer r.Close()
	out, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("compress: zlib read: %w", err)
	}
	return out, nil
}

// Identity passes data through unchanged; the "no compression" baseline.
type Identity struct{}

// Name implements Codec.
func (Identity) Name() string { return "none" }

// Compress implements Codec.
func (Identity) Compress(dst, data []byte) []byte {
	return append(dst, data...)
}

// Decompress implements Codec.
func (Identity) Decompress(data []byte) ([]byte, error) {
	return append([]byte(nil), data...), nil
}
