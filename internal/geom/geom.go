// Package geom provides the small planar-geometry vocabulary used by the
// sensor-network simulator: points, rectangles, Euclidean distance, and a
// deterministic 64-bit hash used for reproducible per-location noise.
package geom

import "math"

// Point is a location in the deployment plane, in meters.
type Point struct {
	X, Y float64
}

// Dist returns the Euclidean distance between p and q.
func Dist(p, q Point) float64 {
	return math.Hypot(p.X-q.X, p.Y-q.Y)
}

// Dist2 returns the squared Euclidean distance between p and q.
// It avoids the square root for range tests.
func Dist2(p, q Point) float64 {
	dx, dy := p.X-q.X, p.Y-q.Y
	return dx*dx + dy*dy
}

// Rect is an axis-aligned rectangle [MinX,MaxX] x [MinY,MaxY].
type Rect struct {
	MinX, MinY, MaxX, MaxY float64
}

// Square returns a square rectangle with the given side anchored at (0,0).
func Square(side float64) Rect {
	return Rect{0, 0, side, side}
}

// Width returns the horizontal extent of r.
func (r Rect) Width() float64 { return r.MaxX - r.MinX }

// Height returns the vertical extent of r.
func (r Rect) Height() float64 { return r.MaxY - r.MinY }

// Area returns the area of r.
func (r Rect) Area() float64 { return r.Width() * r.Height() }

// Center returns the midpoint of r.
func (r Rect) Center() Point {
	return Point{(r.MinX + r.MaxX) / 2, (r.MinY + r.MaxY) / 2}
}

// Corner returns the lower-left corner of r.
func (r Rect) Corner() Point { return Point{r.MinX, r.MinY} }

// Lerp interpolates within r: fx, fy in [0,1] map to the corresponding
// fraction of the rectangle's extent.
func (r Rect) Lerp(fx, fy float64) Point {
	return Point{r.MinX + fx*r.Width(), r.MinY + fy*r.Height()}
}

// Hash64 mixes an arbitrary set of 64-bit words into a single hash using
// the splitmix64 finalizer. It is used to derive reproducible pseudo-random
// values from coordinates and seeds without keeping RNG state per node.
func Hash64(words ...uint64) uint64 {
	h := uint64(0x9e3779b97f4a7c15)
	for _, w := range words {
		h ^= w + 0x9e3779b97f4a7c15 + (h << 6) + (h >> 2)
		h = mix64(h)
	}
	return h
}

func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// HashUnit maps the hash of words to a float64 uniform in [0,1).
func HashUnit(words ...uint64) float64 {
	return float64(Hash64(words...)>>11) / float64(1<<53)
}

// HashNorm maps the hash of words to an approximately standard-normal
// value, using the sum of four uniforms (Irwin-Hall) shifted and scaled.
// It is cheap, deterministic, and close enough to Gaussian for sensor
// measurement noise.
func HashNorm(words ...uint64) float64 {
	h := Hash64(words...)
	var s float64
	for i := 0; i < 4; i++ {
		s += float64((h>>(16*uint(i)))&0xffff) / 65536.0
	}
	// Sum of 4 uniforms: mean 2, variance 4/12. Normalize.
	return (s - 2) / math.Sqrt(4.0/12.0)
}
