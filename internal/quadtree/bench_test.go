package quadtree

import (
	"math/rand"
	"testing"

	"sensjoin/internal/zorder"
)

func benchSetup(b *testing.B, n int, clustered bool) (*Codec, []zorder.Key) {
	b.Helper()
	temp, _ := zorder.NewDim("temp", 0, 40, 0.1)
	x, _ := zorder.NewDim("x", 0, 1050, 1)
	y, _ := zorder.NewDim("y", 0, 1050, 1)
	g, err := zorder.NewGrid(2, []zorder.Dim{temp, x, y})
	if err != nil {
		b.Fatal(err)
	}
	c, err := NewCodec(g.Levels())
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	return c, NormalizeKeys(randomKeys(g, rng, n, clustered))
}

func BenchmarkEncode1500Clustered(b *testing.B) {
	c, keys := benchSetup(b, 1500, true)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Encode(keys)
	}
	e := c.Encode(keys)
	b.ReportMetric(float64(e.ByteLen())/float64(len(keys)), "bytes/key")
}

func BenchmarkEncode1500Uniform(b *testing.B) {
	c, keys := benchSetup(b, 1500, false)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Encode(keys)
	}
	e := c.Encode(keys)
	b.ReportMetric(float64(e.ByteLen())/float64(len(keys)), "bytes/key")
}

// sizeSink keeps the compiler from discarding the measured call.
var sizeSink int

// BenchmarkSizeBits is what the simulator pays per message: compare
// with BenchmarkEncode1500*, which is what it paid when sizes were
// taken from a materialized encoding.
func BenchmarkSizeBits(b *testing.B) {
	for _, bc := range []struct {
		name      string
		clustered bool
	}{{"1500Clustered", true}, {"1500Uniform", false}} {
		b.Run(bc.name, func(b *testing.B) {
			c, keys := benchSetup(b, 1500, bc.clustered)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sizeSink = c.SizeBits(keys)
			}
		})
	}
}

func BenchmarkDecode1500(b *testing.B) {
	c, keys := benchSetup(b, 1500, true)
	e := c.Encode(keys)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := c.Decode(e); err != nil {
			b.Fatal(err)
		}
	}
}
