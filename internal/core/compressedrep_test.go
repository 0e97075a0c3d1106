package core

import (
	"bytes"
	"errors"
	"io/fs"
	"os"
	"slices"
	"testing"

	"sensjoin/internal/compress"
	"sensjoin/internal/zorder"
)

// e8Src is the shape of E8's query (workload.Ratio60 at a fixed δ): three
// join attributes, temp, x and y, on all 1500 nodes of the default
// deployment.
const e8Src = "SELECT A.temp, B.temp, A.hum, B.hum, A.pres, B.pres FROM Sensors A, Sensors B " +
	"WHERE A.temp - B.temp > 7.5 AND distance(A.x, A.y, B.x, B.y) > 100 ONCE"

// e8Proxy returns a plan of e8Src at 1500 nodes and the payload the
// base station's subtree forwards under it: every member's key, sorted
// and deduplicated, and the member count (the raw image repeats keys
// round-robin up to it).
func e8Proxy(tb testing.TB) (p *plan, keys []zorder.Key, count int) {
	tb.Helper()
	r, err := NewRunner(SetupConfig{Nodes: 1500, Seed: 42})
	if err != nil {
		tb.Fatal(err)
	}
	x, err := execSQL(r, e8Src, 0)
	if err != nil {
		tb.Fatal(err)
	}
	p = buildPlan(x)
	tb.Cleanup(p.release)
	for _, nd := range p.nodes {
		if nd.flags != 0 {
			keys = append(keys, nd.key)
			count++
		}
	}
	slices.Sort(keys)
	return p, slices.Compact(keys), count
}

// e8RawImage is the committed raw image of e8Proxy, the input
// internal/compress's BenchmarkBWT times beside its synthetic payload.
const e8RawImage = "../compress/testdata/e8_raw_1500.bin"

// The committed image is the one CompressedRep builds. A missing file is
// written, so deleting it and running this test regenerates it.
func TestE8RawImageFixture(t *testing.T) {
	p, keys, count := e8Proxy(t)
	var coords []uint32
	img := appendRawKeyBytes(nil, &coords, p, keys, count)
	if len(img) != 6*count {
		t.Fatalf("%d tuples in %d B, want 6 B per tuple", count, len(img))
	}
	got, err := os.ReadFile(e8RawImage)
	if errors.Is(err, fs.ErrNotExist) {
		if err := os.WriteFile(e8RawImage, img, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d B)", e8RawImage, len(img))
		return
	}
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, img) {
		t.Fatalf("%s (%d B) is not the image CompressedRep builds (%d B): delete it and rerun this test",
			e8RawImage, len(got), len(img))
	}
}

// BenchmarkCompressedRep is one forwarding node's charge under E8's
// compression baselines, at the largest subtree a 1500-node round has:
// build the raw image, compress it, keep the length.
func BenchmarkCompressedRep(b *testing.B) {
	p, keys, count := e8Proxy(b)
	for _, c := range []compress.Codec{compress.BWZ{}, compress.Zlib{}} {
		rep := CompressedRep{Codec: c}
		b.Run(c.Name(), func(b *testing.B) {
			var n int
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				n = rep.compressedBytes(p, keys, count)
			}
			b.ReportMetric(float64(n), "B")
		})
	}
}
