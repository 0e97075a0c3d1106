package geom

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDist(t *testing.T) {
	if d := Dist(Point{0, 0}, Point{3, 4}); d != 5 {
		t.Fatalf("Dist = %g, want 5", d)
	}
	if d := Dist(Point{1, 1}, Point{1, 1}); d != 0 {
		t.Fatalf("Dist same point = %g, want 0", d)
	}
}

func TestDist2MatchesDist(t *testing.T) {
	f := func(ax, ay, bx, by float64) bool {
		if math.IsNaN(ax) || math.IsNaN(ay) || math.IsNaN(bx) || math.IsNaN(by) {
			return true
		}
		// Limit magnitude to avoid overflow-driven mismatches.
		clamp := func(v float64) float64 { return math.Mod(v, 1e6) }
		p, q := Point{clamp(ax), clamp(ay)}, Point{clamp(bx), clamp(by)}
		d := Dist(p, q)
		return math.Abs(d*d-Dist2(p, q)) <= 1e-6*(1+d*d)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRect(t *testing.T) {
	r := Square(10)
	if r.Width() != 10 || r.Height() != 10 || r.Area() != 100 {
		t.Fatalf("Square(10) dims wrong: %+v", r)
	}
	if c := r.Center(); c != (Point{5, 5}) {
		t.Fatalf("Center = %+v, want (5,5)", c)
	}
	if c := r.Corner(); c != (Point{0, 0}) {
		t.Fatalf("Corner = %+v, want (0,0)", c)
	}
}

func TestLerp(t *testing.T) {
	r := Rect{10, 20, 30, 60}
	if p := r.Lerp(0, 0); p != (Point{10, 20}) {
		t.Fatalf("Lerp(0,0) = %+v", p)
	}
	if p := r.Lerp(1, 1); p != (Point{30, 60}) {
		t.Fatalf("Lerp(1,1) = %+v", p)
	}
	if p := r.Lerp(0.5, 0.5); p != (Point{20, 40}) {
		t.Fatalf("Lerp(0.5,0.5) = %+v", p)
	}
}

func TestHash64Deterministic(t *testing.T) {
	a := Hash64(1, 2, 3)
	b := Hash64(1, 2, 3)
	if a != b {
		t.Fatal("Hash64 not deterministic")
	}
	if Hash64(1, 2, 3) == Hash64(3, 2, 1) {
		t.Fatal("Hash64 should be order sensitive")
	}
	if Hash64(1) == Hash64(2) {
		t.Fatal("Hash64 collision on trivial inputs")
	}
}

func TestHashUnitRange(t *testing.T) {
	for i := uint64(0); i < 1000; i++ {
		u := HashUnit(i)
		if u < 0 || u >= 1 {
			t.Fatalf("HashUnit(%d) = %g out of [0,1)", i, u)
		}
	}
}

func TestHashUnitUniformity(t *testing.T) {
	// Coarse uniformity: 10 buckets over 10k samples should each hold
	// roughly 1000 +- 20%.
	counts := make([]int, 10)
	for i := uint64(0); i < 10000; i++ {
		counts[int(HashUnit(i, 42)*10)]++
	}
	for b, c := range counts {
		if c < 800 || c > 1200 {
			t.Fatalf("bucket %d has %d samples, expected ~1000", b, c)
		}
	}
}

func TestHashNormMoments(t *testing.T) {
	var sum, sum2 float64
	n := 20000
	for i := 0; i < n; i++ {
		v := HashNorm(uint64(i), 7)
		sum += v
		sum2 += v * v
	}
	mean := sum / float64(n)
	variance := sum2/float64(n) - mean*mean
	if math.Abs(mean) > 0.05 {
		t.Fatalf("HashNorm mean = %g, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.1 {
		t.Fatalf("HashNorm variance = %g, want ~1", variance)
	}
}
