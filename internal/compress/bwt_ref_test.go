package compress

import (
	"bytes"
	"math/rand"
	"sort"
	"testing"
)

// bwtReference is the transform as it was before its scratch was pooled
// and its comparison packed: the oracle for tie order on periodic input,
// where the sort's treatment of equal rotations decides the primary
// index (and with it the compressed size).
func bwtReference(data []byte) (last []byte, primary int) {
	n := len(data)
	if n == 0 {
		return nil, 0
	}
	rank := make([]int, n)
	for i, b := range data {
		rank[i] = int(b)
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	tmp := make([]int, n)
	for k := 1; ; k <<= 1 {
		key := func(i int) (int, int) {
			return rank[i], rank[(i+k)%n]
		}
		sort.Slice(idx, func(a, b int) bool {
			r1a, r2a := key(idx[a])
			r1b, r2b := key(idx[b])
			if r1a != r1b {
				return r1a < r1b
			}
			return r2a < r2b
		})
		tmp[idx[0]] = 0
		for i := 1; i < n; i++ {
			r1p, r2p := key(idx[i-1])
			r1c, r2c := key(idx[i])
			tmp[idx[i]] = tmp[idx[i-1]]
			if r1p != r1c || r2p != r2c {
				tmp[idx[i]]++
			}
		}
		copy(rank, tmp)
		if rank[idx[n-1]] == n-1 || k >= n {
			break
		}
	}
	last = make([]byte, n)
	for i, rot := range idx {
		last[i] = data[(rot+n-1)%n]
		if rot == 0 {
			primary = i
		}
	}
	return last, primary
}

// The pooled transform returns the reference's last column AND primary
// index, including on periodic input (equal rotations) and across calls
// of different sizes sharing one scratch.
func TestBWTMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	var inputs [][]byte
	for _, n := range []int{1, 2, 3, 16, 100, 257, 4096, 16384} {
		inputs = append(inputs, sensorPayload(n))
		noise := make([]byte, n)
		rng.Read(noise)
		inputs = append(inputs, noise)
	}
	// Periodic: a short unit repeated, as rawCount > len(keys) produces.
	for _, unit := range []int{1, 2, 6, 34, 128} {
		for _, reps := range []int{2, 3, 7, 64} {
			inputs = append(inputs, bytes.Repeat(sensorPayload(unit), reps))
		}
	}
	inputs = append(inputs, bytes.Repeat([]byte{0}, 300), bytes.Repeat([]byte{1, 1, 2}, 100))
	rng.Shuffle(len(inputs), func(i, j int) { inputs[i], inputs[j] = inputs[j], inputs[i] })
	for _, data := range inputs {
		gotLast, gotPrimary := bwt(data)
		wantLast, wantPrimary := bwtReference(data)
		if !bytes.Equal(gotLast, wantLast) || gotPrimary != wantPrimary {
			t.Fatalf("%d B input: primary %d, want %d; last column equal: %t",
				len(data), gotPrimary, wantPrimary, bytes.Equal(gotLast, wantLast))
		}
	}
}
