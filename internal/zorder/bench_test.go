package zorder

import (
	"math/rand"
	"testing"
)

func benchGrid(b *testing.B) *Grid {
	b.Helper()
	temp, _ := NewDim("temp", 0, 40, 0.1)
	x, _ := NewDim("x", 0, 1050, 1)
	y, _ := NewDim("y", 0, 1050, 1)
	g, err := NewGrid(2, []Dim{temp, x, y})
	if err != nil {
		b.Fatal(err)
	}
	return g
}

func BenchmarkEncode(b *testing.B) {
	g := benchGrid(b)
	rng := rand.New(rand.NewSource(1))
	vals := make([][]float64, 256)
	for i := range vals {
		vals[i] = []float64{rng.Float64() * 40, rng.Float64() * 1050, rng.Float64() * 1050}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Encode(0b11, vals[i%len(vals)])
	}
}

func BenchmarkDeinterleave(b *testing.B) {
	g := benchGrid(b)
	k := g.Encode(0b10, []float64{23.2, 512, 700})
	buf := make([]uint32, len(g.Dims))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.DeinterleaveInto(k, buf)
	}
}
