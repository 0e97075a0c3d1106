package compress

import (
	"fmt"
	"math/rand"
	"os"
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
		compressed = c.Compress(compressed[:0], data)
	}
	b.ReportMetric(float64(len(compressed))/float64(len(data)), "ratio")
}

// BenchmarkZlibCompress is the steady state a forwarding node pays: the
// writer comes from the per-level pool and the output is appended to the
// last iteration's buffer, so B/op is 0, not a 1.2 MB compressor.
func BenchmarkZlibCompress(b *testing.B) {
	for _, size := range []int{64, 256, 4096} {
		b.Run(fmt.Sprintf("%dB", size), func(b *testing.B) { benchCodec(b, Zlib{}, size) })
	}
}

func BenchmarkBWZSmall(b *testing.B)  { benchCodec(b, BWZ{}, 64) }
func BenchmarkBWZMedium(b *testing.B) { benchCodec(b, BWZ{}, 4096) }

func BenchmarkBWZDecompress(b *testing.B) {
	z := BWZ{}
	c := z.Compress(nil, sensorPayload(4096))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := z.Decompress(c); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBWT times the transform on the synthetic payload and on the
// raw image of a 1500-node E8 round's largest subtree (written by
// internal/core's TestE8RawImageFixture).
func BenchmarkBWT(b *testing.B) {
	e8, err := os.ReadFile("testdata/e8_raw_1500.bin")
	if err != nil {
		b.Fatal(err)
	}
	for _, in := range []struct {
		name string
		data []byte
	}{{"sensor-4096B", sensorPayload(4096)}, {"e8-1500", e8}} {
		b.Run(in.name, func(b *testing.B) {
			s := getBWZScratch()
			defer bwzPool.put(s)
			last := make([]byte, len(in.data))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s.bwt.transform(in.data, last)
			}
		})
	}
}
