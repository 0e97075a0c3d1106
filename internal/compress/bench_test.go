package compress

import (
	"fmt"
	"math/rand"
	"testing"
)

// sensorPayload mimics the wire image of raw join-attribute tuples:
// 2-byte fixed-point values with spatial correlation between consecutive
// tuples (the workload of the paper's §VI-B comparison).
func sensorPayload(n int) []byte {
	rng := rand.New(rand.NewSource(7))
	out := make([]byte, 0, n)
	temp, x, y := 200, 500, 500
	for len(out) < n {
		temp += rng.Intn(5) - 2
		x += rng.Intn(21) - 10
		y += rng.Intn(21) - 10
		for _, v := range []int{temp, x, y} {
			out = append(out, byte(v), byte(v>>8))
		}
	}
	return out[:n]
}

func benchCodec(b *testing.B, c Codec, size int) {
	data := sensorPayload(size)
	b.ReportAllocs()
	b.ResetTimer()
	var compressed []byte
	for i := 0; i < b.N; i++ {
		compressed = c.Compress(data)
	}
	b.ReportMetric(float64(len(compressed))/float64(len(data)), "ratio")
}

// BenchmarkZlibCompress is the steady state a forwarding node pays: the
// writer comes from the per-level pool, so B/op is the returned bytes,
// not a 1.2 MB compressor.
func BenchmarkZlibCompress(b *testing.B) {
	for _, size := range []int{64, 256, 4096} {
		b.Run(fmt.Sprintf("%dB", size), func(b *testing.B) { benchCodec(b, Zlib{}, size) })
	}
}

func BenchmarkBWZSmall(b *testing.B)  { benchCodec(b, BWZ{}, 64) }
func BenchmarkBWZMedium(b *testing.B) { benchCodec(b, BWZ{}, 4096) }

func BenchmarkBWZDecompress(b *testing.B) {
	z := BWZ{}
	c := z.Compress(sensorPayload(4096))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := z.Decompress(c); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBWT(b *testing.B) {
	data := sensorPayload(4096)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		bwt(data)
	}
}
