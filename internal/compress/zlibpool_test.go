package compress

import (
	"bytes"
	"compress/zlib"
	"math/rand"
	"runtime"
	"sync"
	"testing"
)

// freshZlib compresses with a writer built for this one payload: what
// Zlib.Compress did before writers were reused, and the reference the
// pooled path must match byte for byte.
func freshZlib(t testing.TB, level int, data []byte) []byte {
	var buf bytes.Buffer
	w, err := zlib.NewWriterLevel(&buf, level)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// zlibInputs spans 1 B to 64 KB, structured and random, so a reused
// writer sees every window state a fresh one does.
func zlibInputs() [][]byte {
	rng := rand.New(rand.NewSource(9))
	var out [][]byte
	for _, n := range []int{1, 2, 7, 64, 256, 1000, 4096, 32 << 10, 64 << 10} {
		out = append(out, sensorPayload(n))
		noise := make([]byte, n)
		rng.Read(noise)
		out = append(out, noise)
	}
	return out
}

var zlibLevels = []int{zlib.HuffmanOnly, zlib.DefaultCompression, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9}

// effectiveLevel mirrors Zlib.Compress: 0 selects best compression.
func effectiveLevel(level int) int {
	if level == 0 {
		return zlib.BestCompression
	}
	return level
}

func TestZlibPooledMatchesFresh(t *testing.T) {
	inputs := zlibInputs()
	for _, level := range zlibLevels {
		z := Zlib{Level: level}
		// Two rounds in mixed order: the second reuses writers that have
		// already seen larger and smaller payloads.
		for round := 0; round < 2; round++ {
			for i := range inputs {
				data := inputs[(i*5+round)%len(inputs)]
				got, want := z.Compress(nil, data), freshZlib(t, effectiveLevel(level), data)
				if !bytes.Equal(got, want) {
					t.Fatalf("level %d, %d B input, round %d: pooled output differs from a fresh writer's (%d vs %d B)",
						level, len(data), round, len(got), len(want))
				}
			}
		}
	}
}

// Eight goroutines share the pools; run under -race.
func TestZlibPooledConcurrent(t *testing.T) {
	all := zlibInputs()
	var inputs [][]byte
	for i := 0; i < len(all); i += 3 { // structured and noise alternating
		inputs = append(inputs, all[i])
	}
	inputs = append(inputs, all[len(all)-2]) // and the 64 KB payload
	want := make(map[int][][]byte)
	for _, level := range []int{0, 6} {
		for _, data := range inputs {
			want[level] = append(want[level], freshZlib(t, effectiveLevel(level), data))
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for iter := 0; iter < 2; iter++ {
				for level, outs := range want {
					for i := range inputs {
						j := (i + g + iter) % len(inputs)
						if got := (Zlib{Level: level}).Compress(nil, inputs[j]); !bytes.Equal(got, outs[j]) {
							t.Errorf("goroutine %d, level %d, %d B input: pooled output differs", g, level, len(inputs[j]))
							return
						}
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// A fresh writer is about 1.2 MB; the steady state must only pay for
// the returned bytes.
func TestZlibSteadyStateAllocBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector")
	}
	z := Zlib{}
	data := sensorPayload(256)
	z.Compress(nil, data) // warm the pool
	const runs = 50
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		z.Compress(nil, data)
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / runs; per >= 4096 {
		t.Errorf("steady-state Zlib.Compress(256 B) allocates %d B/op, want < 4096", per)
	}
}
