package field

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"sensjoin/internal/geom"
)

func testArea() geom.Rect { return geom.Square(1050) }

func tempField(seed int64) *Field {
	return New(Config{
		Name: "temp", Base: 20, Amplitude: 4, CorrLength: 160,
		Bumps: 24, Noise: 0.05,
	}, testArea(), seed)
}

func TestDeterministic(t *testing.T) {
	f1 := tempField(7)
	f2 := tempField(7)
	p := geom.Point{X: 123.4, Y: 567.8}
	if f1.At(p, 0) != f2.At(p, 0) {
		t.Fatal("same seed should give identical readings")
	}
	f3 := tempField(8)
	if f1.At(p, 0) == f3.At(p, 0) {
		t.Fatal("different seeds should differ")
	}
}

func TestSpatialCorrelation(t *testing.T) {
	// Readings 5 m apart should be far closer than readings 500 m apart,
	// on average: that is the property the quadtree encoding exploits.
	f := tempField(3)
	var near, far float64
	n := 200
	for i := 0; i < n; i++ {
		p := geom.Point{
			X: 100 + 800*geom.HashUnit(uint64(i), 1),
			Y: 100 + 800*geom.HashUnit(uint64(i), 2),
		}
		q := geom.Point{X: p.X + 5, Y: p.Y}
		r := geom.Point{
			X: 100 + 800*geom.HashUnit(uint64(i), 3),
			Y: 100 + 800*geom.HashUnit(uint64(i), 4),
		}
		near += math.Abs(smoothAt(f, p, 0) - smoothAt(f, q, 0))
		far += math.Abs(smoothAt(f, p, 0) - smoothAt(f, r, 0))
	}
	if near*5 > far {
		t.Fatalf("field not spatially correlated: near=%g far=%g", near/float64(n), far/float64(n))
	}
}

func TestNoiseIsSmallAndDeterministic(t *testing.T) {
	f := tempField(9)
	p := geom.Point{X: 500, Y: 500}
	a := f.At(p, 0)
	b := f.At(p, 0)
	if a != b {
		t.Fatal("noise must be deterministic per (pos, time)")
	}
	if d := math.Abs(a - smoothAt(f, p, 0)); d > 0.5 {
		t.Fatalf("noise too large: %g", d)
	}
	// Different times give different noise.
	if f.At(p, 0) == f.At(p, 1) {
		t.Fatal("noise should vary with time")
	}
}

func TestDrift(t *testing.T) {
	f := New(Config{
		Name: "temp", Base: 20, Amplitude: 4, CorrLength: 160,
		Bumps: 24, DriftSpeed: 1.0,
	}, testArea(), 3)
	p := geom.Point{X: 500, Y: 500}
	if smoothAt(f, p, 0) == smoothAt(f, p, 600) {
		t.Fatal("drifting field should change over 10 minutes")
	}
	static := New(Config{
		Name: "temp", Base: 20, Amplitude: 4, CorrLength: 160,
		Bumps: 24,
	}, testArea(), 3)
	if smoothAt(static, p, 0) != smoothAt(static, p, 600) {
		t.Fatal("static field should not change")
	}
}

func TestValuesNearBase(t *testing.T) {
	f := tempField(11)
	var min, max = math.Inf(1), math.Inf(-1)
	for i := 0; i < 500; i++ {
		p := geom.Point{
			X: 1050 * geom.HashUnit(uint64(i), 10),
			Y: 1050 * geom.HashUnit(uint64(i), 11),
		}
		v := f.At(p, 0)
		min = math.Min(min, v)
		max = math.Max(max, v)
	}
	// Base 20, amplitude 4 over 24 bumps: values should stay within a
	// plausible environmental range.
	if min < 0 || max > 45 {
		t.Fatalf("field range [%g, %g] implausible for base 20 amp 4", min, max)
	}
	if max-min < 1 {
		t.Fatalf("field range [%g, %g] suspiciously flat", min, max)
	}
}

func TestEnvironmentReadsLocationAttrs(t *testing.T) {
	e := NewEnvironment()
	p := geom.Point{X: 12.5, Y: 99.25}
	if e.Read("x", p, 0) != 12.5 || e.Read("y", p, 0) != 99.25 {
		t.Fatal("x/y must read node coordinates")
	}
	if e.Read("temp", p, 0) != 0 {
		t.Fatal("unknown attribute must read as 0")
	}
}

func TestEnvironmentCoupling(t *testing.T) {
	e := NewEnvironment()
	e.Add(tempField(5))
	hum := New(Config{Name: "hum", Base: 50, Amplitude: 2, CorrLength: 200, Bumps: 10}, testArea(), 6)
	e.Add(hum)
	e.Couple("hum", "temp", 0, -0.8)
	p := geom.Point{X: 321, Y: 654}
	want := hum.At(p, 0) - 0.8*e.Read("temp", p, 0)
	if got := e.Read("hum", p, 0); math.Abs(got-want) > 1e-9 {
		t.Fatalf("coupled read = %g, want %g", got, want)
	}
}

func TestStandardEnvironment(t *testing.T) {
	e := StandardEnvironment(testArea(), 42)
	for _, name := range []string{"temp", "hum", "pres", "light"} {
		if e.fields[name] == nil {
			t.Fatalf("standard environment missing %q", name)
		}
	}
	if len(e.fields) != 4 {
		t.Fatalf("%d fields, want 4", len(e.fields))
	}
	// Humidity should anti-correlate with temperature across space.
	var cov, vt, vh, mt, mh float64
	n := 300
	pts := make([]geom.Point, n)
	temps := make([]float64, n)
	hums := make([]float64, n)
	for i := 0; i < n; i++ {
		pts[i] = geom.Point{
			X: 1050 * geom.HashUnit(uint64(i), 20),
			Y: 1050 * geom.HashUnit(uint64(i), 21),
		}
		temps[i] = e.Read("temp", pts[i], 0)
		hums[i] = e.Read("hum", pts[i], 0)
		mt += temps[i]
		mh += hums[i]
	}
	mt /= float64(n)
	mh /= float64(n)
	for i := 0; i < n; i++ {
		cov += (temps[i] - mt) * (hums[i] - mh)
		vt += (temps[i] - mt) * (temps[i] - mt)
		vh += (hums[i] - mh) * (hums[i] - mh)
	}
	corr := cov / math.Sqrt(vt*vh)
	if corr > -0.1 {
		t.Fatalf("temp/hum correlation = %g, want clearly negative", corr)
	}
}

func TestWrap(t *testing.T) {
	if v := wrap(-5, 0, 100); v != 95 {
		t.Fatalf("wrap(-5) = %g, want 95", v)
	}
	if v := wrap(105, 0, 100); v != 5 {
		t.Fatalf("wrap(105) = %g, want 5", v)
	}
	if v := wrap(50, 0, 100); v != 50 {
		t.Fatalf("wrap(50) = %g, want 50", v)
	}
	if v := wrap(7, 5, 5); v != 7 {
		t.Fatalf("wrap with empty range = %g, want unchanged 7", v)
	}
	// Far outside the area, where a walk of one width a step takes hours
	// or, past 2^53 widths, never ends, and for non-finite input.
	for _, v := range []float64{1e15, -1e15, 1e300, -1e300, math.MaxFloat64, -math.MaxFloat64} {
		if got := wrap(v, 0, 1050); !(got >= 0 && got <= 1050) {
			t.Errorf("wrap(%v, 0, 1050) = %v, want a value in the area", v, got)
		}
	}
	for _, v := range []float64{math.Inf(1), math.Inf(-1), math.NaN()} {
		if got := wrap(v, 0, 1050); !math.IsNaN(got) {
			t.Errorf("wrap(%v, 0, 1050) = %v, want NaN", v, got)
		}
	}
}

// walkWrap is the reference walk: one width per step, however far out v
// is.
func walkWrap(v, lo, hi float64) float64 {
	w := hi - lo
	if w <= 0 {
		return v
	}
	for v < lo {
		v += w
	}
	for v > hi {
		v -= w
	}
	return v
}

// Within wrapWidths widths of the area, wrap is the walk bit for bit, so
// every field reading at the times a run reaches keeps its value.
func TestWrapKeepsTheWalksBits(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, area := range []geom.Rect{testArea(), {MinX: -37.5, MinY: 12.25, MaxX: 1012.5, MaxY: 13.5}} {
		for _, span := range [][2]float64{{area.MinX, area.MaxX}, {area.MinY, area.MaxY}} {
			lo, hi := span[0], span[1]
			w := hi - lo
			for i := 0; i < 20000; i++ {
				v := lo + (2*rng.Float64()-1)*wrapWidths*w
				if got, want := wrap(v, lo, hi), walkWrap(v, lo, hi); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("wrap(%v, %v, %v) = %v, the walk gives %v", v, lo, hi, got, want)
				}
			}
		}
	}
}

// A drifting field answers at any finite time: its bump centres wrap
// back into the area in bounded steps.
func TestAtFarInTime(t *testing.T) {
	e := StandardEnvironment(testArea(), 42)
	p := geom.Point{X: 500, Y: 500}
	done := make(chan error, 1)
	go func() {
		for _, at := range []float64{1e15, -1e15, 1e300, -1e300} {
			for _, name := range []string{"temp", "hum", "pres", "light"} {
				if v := e.fields[name].At(p, at); math.IsNaN(v) || math.IsInf(v, 0) {
					done <- fmt.Errorf("%s at t = %v is %v, want a reading", name, at, v)
					return
				}
			}
		}
		done <- nil
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Field.At far in time did not return within 10 s")
	}
}

// smoothDirect is the pre-cache formula, kept as the equivalence
// reference for the per-t bump-term cache.
func smoothDirect(f *Field, p geom.Point, t float64) float64 {
	v := f.cfg.Base
	sig2 := 2 * f.cfg.CorrLength * f.cfg.CorrLength
	for _, b := range f.bumps {
		cx := b.cx + b.vx*f.cfg.DriftSpeed*t
		cy := b.cy + b.vy*f.cfg.DriftSpeed*t
		cx = wrap(cx, f.area.MinX, f.area.MaxX)
		cy = wrap(cy, f.area.MinY, f.area.MaxY)
		amp := b.amp
		if f.cfg.AmpPeriod > 0 {
			amp *= math.Cos(2*math.Pi*t/f.cfg.AmpPeriod + b.phase)
		}
		d2 := (p.X-cx)*(p.X-cx) + (p.Y-cy)*(p.Y-cy)
		v += amp * math.Exp(-d2/sig2)
	}
	return v
}

// The cached Smooth must be bit-identical to the direct formula — the
// cache hoists the per-bump time terms but performs the same operations
// in the same order. Times alternate to exercise cache misses, hits,
// and replacement.
func TestSmoothCacheMatchesDirectFormula(t *testing.T) {
	fields := []*Field{
		tempField(7), // static: no drift, no amplitude oscillation
		New(Config{Name: "drift", Base: 5, Amplitude: 3, CorrLength: 120,
			Bumps: 16, DriftSpeed: 0.4, AmpPeriod: 3600}, testArea(), 11),
	}
	times := []float64{0, 17.25, 0, 3600, 17.25, 1e6}
	for _, f := range fields {
		for _, tm := range times {
			for i := 0; i < 50; i++ {
				p := geom.Point{
					X: 1050 * geom.HashUnit(uint64(i), 5),
					Y: 1050 * geom.HashUnit(uint64(i), 6),
				}
				got := smoothAt(f, p, tm)
				want := smoothDirect(f, p, tm)
				if got != want {
					t.Fatalf("%s: Smooth(%v, %g) = %v, direct formula = %v",
						f.Name(), p, tm, got, want)
				}
			}
		}
	}
}

// smoothAt is the noiseless field value at p and time t.
func smoothAt(f *Field, p geom.Point, t float64) float64 {
	return f.smooth(f.termsAt(t), p)
}
