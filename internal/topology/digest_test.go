package topology

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"testing"
)

// digest hashes everything a deployment hands its readers: every
// position bit for bit, and per node whether its list is nil, its
// length, whether its capacity equals its length, and its ids.
func digest(d *Deployment) string {
	h := fnv.New64a()
	var buf [8]byte
	word := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	word(uint64(d.N()))
	for _, p := range d.Pos {
		word(math.Float64bits(p.X))
		word(math.Float64bits(p.Y))
	}
	for _, nb := range d.Neighbors {
		flags := uint64(0)
		if nb == nil {
			flags |= 1
		}
		if cap(nb) == len(nb) {
			flags |= 2
		}
		word(flags)
		word(uint64(len(nb)))
		for _, v := range nb {
			word(uint64(v))
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// deploymentDigests are the digests of Generate's output, recorded from
// the build that re-scanned every neighbour list after repair: deciding
// connectivity on the grid and building the lists once must not change a
// position, a list, its nil-ness or its capacity. The key is
// "nodes/seed/repair".
var deploymentDigests = map[string]string{
	"150/1/false":    "686934cd95360702",
	"150/2/false":    "7a813e83666c2a9f",
	"150/3/false":    "9a292e8c1c1850ab",
	"150/4/false":    "cccdf2e97e69fe77",
	"150/5/false":    "15867e3868750c70",
	"150/6/false":    "2dbd506e66c27da7",
	"150/7/false":    "39ade7afc1a39a4c",
	"150/8/false":    "d89c094c4f3524ad",
	"150/9/false":    "4ad237547c9bd6c5",
	"150/10/false":   "dd2f5877442facca",
	"150/42/false":   "916464a22a6a6793",
	"1500/1/false":   "f70ae550ab36af94",
	"1500/2/false":   "23f1dc42f880b41e",
	"1500/3/false":   "e34cb71a7ffbb165",
	"1500/4/false":   "1360663868bb3edf",
	"1500/5/false":   "ec5952f05852e708",
	"1500/6/false":   "f205f022d661b2bf",
	"1500/7/false":   "2074c009d2ca3072",
	"1500/8/false":   "93486fefa27a0dfa",
	"1500/9/false":   "f48e1782fead9d2a",
	"1500/10/false":  "c4e3060e5f795f01",
	"1500/42/false":  "b2f1d64cbdfc85b0",
	"10000/1/false":  "ecf905567b7562b6",
	"10000/2/false":  "ec30a4664eea0e1b",
	"10000/3/false":  "f58b1823d054154f",
	"10000/4/false":  "45757379d6afa321",
	"10000/5/false":  "51dd7007a0f30bec",
	"10000/6/false":  "bb4092c1c6645bd6",
	"10000/7/false":  "6f456a14578f38fc",
	"10000/8/false":  "e6eb1aa8f763e253",
	"10000/9/false":  "fb3c45d60466dc0b",
	"10000/10/false": "9e69136368b99e4a",
	"10000/42/false": "13916b10b9afc8e9",
	"150/1/true":     "686934cd95360702",
	"150/2/true":     "3e4d773bae743c9e",
	"150/3/true":     "9a292e8c1c1850ab",
	"150/4/true":     "cccdf2e97e69fe77",
	"150/5/true":     "15867e3868750c70",
	"150/6/true":     "2dbd506e66c27da7",
	"150/7/true":     "40cc02ab8289d02f",
	"150/8/true":     "44652005146cfe86",
	"150/9/true":     "4ad237547c9bd6c5",
	"150/10/true":    "dd2f5877442facca",
	"150/42/true":    "916464a22a6a6793",
	"1500/1/true":    "f70ae550ab36af94",
	"1500/2/true":    "23f1dc42f880b41e",
	"1500/3/true":    "e34cb71a7ffbb165",
	"1500/4/true":    "1360663868bb3edf",
	"1500/5/true":    "ec5952f05852e708",
	"1500/6/true":    "f205f022d661b2bf",
	"1500/7/true":    "2074c009d2ca3072",
	"1500/8/true":    "ecdae54422be8e82",
	"1500/9/true":    "f48e1782fead9d2a",
	"1500/10/true":   "73a39e66d89e9afa",
	"1500/42/true":   "b2f1d64cbdfc85b0",
	"10000/1/true":   "84506ee9b251ce81",
	"10000/2/true":   "0bbc5caecb9aea24",
	"10000/3/true":   "0c00bbfa0ba5f51d",
	"10000/4/true":   "8b4568531d604803",
	"10000/5/true":   "943f775d7fb098a4",
	"10000/6/true":   "bb4092c1c6645bd6",
	"10000/7/true":   "16c290f1fd8f5299",
	"10000/8/true":   "0d8ecdd9bdc850dc",
	"10000/9/true":   "782355ee7e50d75b",
	"10000/10/true":  "f1a8b44fbcfd6d57",
	"10000/42/true":  "13916b10b9afc8e9",
	"100000/2/true":  "44925ee721ccfa71",
	"100000/42/true": "82ab6f6d87e22e5d",
}

// TestDeploymentDigests regenerates every recorded deployment on one and
// two workers and compares digests. 100,000 nodes at seed 2 is the
// placement whose corner base station has no node in range, so the
// bridge moves relays before the stragglers are relocated.
func TestDeploymentDigests(t *testing.T) {
	type key struct {
		nodes  int
		seed   int64
		repair bool
	}
	var cases []key
	for _, repair := range []bool{false, true} {
		for _, nodes := range []int{150, 1500, 10000} {
			for _, seed := range []int64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 42} {
				cases = append(cases, key{nodes, seed, repair})
			}
		}
	}
	if !testing.Short() {
		cases = append(cases, key{100000, 2, true}, key{100000, 42, true})
	}
	for _, c := range cases {
		name := fmt.Sprintf("%d/%d/%t", c.nodes, c.seed, c.repair)
		want, ok := deploymentDigests[name]
		if !ok {
			t.Fatalf("%s: no recorded digest", name)
		}
		for _, workers := range []int{1, 2} {
			cfg := Config{Nodes: c.nodes, Area: ScaledArea(c.nodes), Range: 50, Seed: c.seed, Repair: c.repair}
			d, err := GenerateParallel(cfg, workers)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if got := digest(d); got != want {
				t.Errorf("%s on %d workers: digest %s, want %s", name, workers, digest(d), want)
			}
		}
	}
}
