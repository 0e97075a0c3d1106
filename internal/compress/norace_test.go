//go:build !race

package compress

import (
	"bytes"
	"testing"
)

const raceEnabled = false

// A warm Compress into a dst with capacity allocates nothing: BWZ's
// arrays, last column, symbols, tables and bit writer live in its pooled
// scratch, and Zlib appends its pooled writer's bytes to dst. Periodic
// blocks, which take the comparison sort, are included.
func TestCompressSteadyStateAllocs(t *testing.T) {
	inputs := [][]byte{sensorPayload(64), sensorPayload(4096), bytes.Repeat(sensorPayload(60), 20)}
	for _, c := range []Codec{BWZ{}, BWZ{BlockSize: 1000}, Zlib{}} {
		for _, data := range inputs {
			dst := c.Compress(nil, data)
			if n := testing.AllocsPerRun(20, func() { dst = c.Compress(dst[:0], data) }); n != 0 {
				t.Errorf("%s over %d B: %.1f allocations per warm Compress, want 0", c.Name(), len(data), n)
			}
		}
	}
}
