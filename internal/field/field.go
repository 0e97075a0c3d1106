// Package field synthesizes spatially correlated sensor fields.
//
// The paper evaluates SENS-Join on "a fixed distribution of the physical
// quantities, emulating real sensor data" (§VI) and motivates the quadtree
// representation with the spatial autocorrelation observed in the Intel
// Lab deployment (§V-A, Fig. 4). We reproduce that setting with smooth
// random fields: a base level plus a sum of Gaussian bumps with a
// configurable correlation length, small deterministic measurement noise,
// and optional temporal drift for continuous queries.
//
// All values are deterministic functions of (seed, position, time), so
// experiments are exactly reproducible and re-sampling a snapshot does not
// perturb unrelated readings.
package field

import (
	"math"
	"math/rand"
	"sync"
	"sync/atomic"

	"sensjoin/internal/geom"
)

// Config describes one scalar field.
type Config struct {
	// Name identifies the physical quantity (e.g. "temp").
	Name string
	// Base is the mean level of the field.
	Base float64
	// Amplitude scales the Gaussian bumps added to the base level.
	Amplitude float64
	// CorrLength is the standard deviation, in meters, of each bump;
	// it controls the spatial correlation length of the field.
	CorrLength float64
	// Bumps is the number of Gaussian bumps scattered over the area.
	Bumps int
	// Noise is the standard deviation of per-reading measurement noise.
	Noise float64
	// DriftSpeed is the speed, in meters per second, at which bump
	// centers move; zero yields a static field.
	DriftSpeed float64
	// AmpPeriod, when positive, makes bump amplitudes oscillate with
	// this period in seconds (temporal variation for SAMPLE PERIOD
	// queries).
	AmpPeriod float64
}

type bump struct {
	cx, cy float64 // center
	vx, vy float64 // drift direction (unit vector)
	amp    float64
	phase  float64
}

// Field is a deterministic scalar field over an area.
type Field struct {
	cfg   Config
	area  geom.Rect
	seed  uint64
	bumps []bump
	// terms caches the per-bump time-dependent factors of the last time
	// queried (see termsAt). Calibration and snapshot sampling evaluate
	// thousands of points at one t, so the trigonometry amortizes to
	// once per bump per t instead of once per bump per point.
	terms atomic.Pointer[bumpTerms]
}

// bumpTerm is one bump's position and amplitude at a fixed time,
// computed exactly as the direct formula does.
type bumpTerm struct {
	cx, cy float64
	amp    float64
}

// bumpTerms is an immutable per-t snapshot of all bump terms.
type bumpTerms struct {
	t     float64
	terms []bumpTerm
}

// New builds a field over area from cfg, seeded deterministically.
func New(cfg Config, area geom.Rect, seed int64) *Field {
	rng := rand.New(rand.NewSource(seed ^ int64(len(cfg.Name))<<32 ^ hashName(cfg.Name)))
	f := &Field{cfg: cfg, area: area, seed: uint64(seed) ^ uint64(hashName(cfg.Name))}
	for i := 0; i < cfg.Bumps; i++ {
		ang := rng.Float64() * 2 * math.Pi
		f.bumps = append(f.bumps, bump{
			cx:    area.MinX + rng.Float64()*area.Width(),
			cy:    area.MinY + rng.Float64()*area.Height(),
			vx:    math.Cos(ang),
			vy:    math.Sin(ang),
			amp:   (rng.Float64()*2 - 1) * cfg.Amplitude,
			phase: rng.Float64() * 2 * math.Pi,
		})
	}
	return f
}

func hashName(name string) int64 {
	var h int64 = 1469598103934665603
	for i := 0; i < len(name); i++ {
		h ^= int64(name[i])
		h *= 1099511628211
	}
	return h
}

// Name returns the configured quantity name.
func (f *Field) Name() string { return f.cfg.Name }

// termsAt returns the bump terms at time t, serving repeated queries at
// one t from the cached snapshot. Snapshots are immutable and replaced
// atomically, so concurrent readers at mixed times are safe: a racing
// fill recomputes the same pure function of t.
func (f *Field) termsAt(t float64) []bumpTerm {
	if c := f.terms.Load(); c != nil && c.t == t {
		return c.terms
	}
	terms := make([]bumpTerm, len(f.bumps))
	for i, b := range f.bumps {
		cx := b.cx + b.vx*f.cfg.DriftSpeed*t
		cy := b.cy + b.vy*f.cfg.DriftSpeed*t
		// Wrap drifting centers back into the area so long runs stay
		// representative.
		cx = wrap(cx, f.area.MinX, f.area.MaxX)
		cy = wrap(cy, f.area.MinY, f.area.MaxY)
		amp := b.amp
		if f.cfg.AmpPeriod > 0 {
			amp *= math.Cos(2*math.Pi*t/f.cfg.AmpPeriod + b.phase)
		}
		terms[i] = bumpTerm{cx: cx, cy: cy, amp: amp}
	}
	f.terms.Store(&bumpTerms{t: t, terms: terms})
	return terms
}

func (f *Field) smooth(terms []bumpTerm, p geom.Point) float64 {
	v := f.cfg.Base
	sig2 := 2 * f.cfg.CorrLength * f.cfg.CorrLength
	for _, b := range terms {
		d2 := (p.X-b.cx)*(p.X-b.cx) + (p.Y-b.cy)*(p.Y-b.cy)
		v += b.amp * math.Exp(-d2/sig2)
	}
	return v
}

// At returns a sensor reading at p and time t: the smooth value plus
// deterministic measurement noise derived from (seed, p, t).
func (f *Field) At(p geom.Point, t float64) float64 {
	return f.at(f.termsAt(t), p, t)
}

// at is At over already resolved bump terms; Snapshot fills whole
// columns through it, so a column holds exactly At's bits.
func (f *Field) at(terms []bumpTerm, p geom.Point, t float64) float64 {
	v := f.smooth(terms, p)
	if f.cfg.Noise > 0 {
		n := geom.HashNorm(f.seed, math.Float64bits(p.X), math.Float64bits(p.Y), math.Float64bits(t))
		v += f.cfg.Noise * n
	}
	return v
}

// wrapWidths is how many area widths outside the area wrap still walks
// back one width at a time. A centre further out is first brought within
// a width of the area with math.Mod: the walk would take a step per width,
// and past 2^53 widths a step no longer changes the value at all.
const wrapWidths = 1 << 10

// wrap brings v back into [lo, hi] by whole widths hi - lo. Within
// wrapWidths widths of the area it walks one width a step, so the field
// values a run reads keep the bits of that walk; it ends in a bounded
// number of steps for every input, and a non-finite one comes back NaN.
func wrap(v, lo, hi float64) float64 {
	w := hi - lo
	if w <= 0 {
		return v
	}
	if v < lo-wrapWidths*w || v > hi+wrapWidths*w {
		if v = lo + math.Mod(v-lo, w); v < lo {
			v += w
		}
	}
	for v < lo {
		v += w
	}
	for v > hi {
		v -= w
	}
	return v
}

// Environment bundles the fields of one deployment and maps attribute
// names to values. Location attributes ("x", "y") are served from the
// node position rather than a field.
//
// Immutability contract: Add and Couple may only be called while the
// environment is being constructed (StandardEnvironment and
// QuietEnvironment do exactly that). After construction, Read/Has/Names
// only read the maps, so a fully built Environment is safe to share
// across concurrently running simulations (core's deployment cache
// relies on it, and so does Snapshot: a column filled once stays valid
// for the life of the environment).
type Environment struct {
	fields map[string]*Field
	// Couplings derives one quantity from another:
	// value = offset + gain*other + field component.
	couplings map[string]coupling
	// snaps remembers the most recent snapshots (see Snapshot), replaced
	// round-robin at snapNext. Entries are immutable once published, so
	// lookups are plain atomic loads.
	snaps    [snapshotRing]atomic.Pointer[Snapshot]
	snapNext atomic.Uint32
	// memo holds results derived from the environment over some positions
	// (see Memo); they live exactly as long as the environment does.
	memo sync.Map
}

type coupling struct {
	other  string
	offset float64
	gain   float64
}

// NewEnvironment returns an empty environment.
func NewEnvironment() *Environment {
	return &Environment{
		fields:    make(map[string]*Field),
		couplings: make(map[string]coupling),
	}
}

// Add registers a field under its configured name.
func (e *Environment) Add(f *Field) { e.fields[f.Name()] = f }

// Couple makes attribute name depend linearly on attribute other in
// addition to name's own field: name = offset + gain*other + field(name).
// The paper's Q2 rationale (humidity/pressure correlate with temperature)
// is modeled this way.
func (e *Environment) Couple(name, other string, offset, gain float64) {
	e.couplings[name] = coupling{other: other, offset: offset, gain: gain}
}

// Read returns the value of attribute name at position p and time t.
// Unknown attributes read as 0.
func (e *Environment) Read(name string, p geom.Point, t float64) float64 {
	switch name {
	case "x":
		return p.X
	case "y":
		return p.Y
	}
	var v float64
	if f, ok := e.fields[name]; ok {
		v = f.At(p, t)
	}
	if c, ok := e.couplings[name]; ok {
		v += c.offset + c.gain*e.Read(c.other, p, t)
	}
	return v
}

// QuietEnvironment builds a low-noise, slowly drifting variant of the
// standard environment: consecutive snapshots stay correlated at
// quantization-cell granularity, the precondition for the incremental
// filter mode (paper §VIII future work) to pay off.
func QuietEnvironment(area geom.Rect, seed int64) *Environment {
	e := NewEnvironment()
	add := func(cfg Config, s int64) { e.Add(New(cfg, area, s)) }
	add(Config{Name: "temp", Base: 20, Amplitude: 4, CorrLength: 160,
		Bumps: 24, Noise: 0.002, DriftSpeed: 0.01, AmpPeriod: 72000}, seed)
	add(Config{Name: "hum", Base: 55, Amplitude: 6, CorrLength: 200,
		Bumps: 18, Noise: 0.01, DriftSpeed: 0.01, AmpPeriod: 72000}, seed+1)
	add(Config{Name: "pres", Base: 1013, Amplitude: 3, CorrLength: 400,
		Bumps: 10, Noise: 0.01, DriftSpeed: 0.01, AmpPeriod: 72000}, seed+2)
	add(Config{Name: "light", Base: 500, Amplitude: 250, CorrLength: 120,
		Bumps: 30, Noise: 1, DriftSpeed: 0.01, AmpPeriod: 72000}, seed+3)
	e.Couple("hum", "temp", 0, -0.8)
	e.Couple("pres", "temp", 0, -0.15)
	return e
}

// StandardEnvironment builds the default environment used throughout the
// experiments: temperature, humidity, pressure and light fields over the
// given area, with humidity and pressure coupled to temperature.
func StandardEnvironment(area geom.Rect, seed int64) *Environment {
	e := NewEnvironment()
	temp := New(Config{
		Name: "temp", Base: 20, Amplitude: 4, CorrLength: 160,
		Bumps: 24, Noise: 0.05, DriftSpeed: 0.4, AmpPeriod: 3600,
	}, area, seed)
	hum := New(Config{
		Name: "hum", Base: 55, Amplitude: 6, CorrLength: 200,
		Bumps: 18, Noise: 0.3, DriftSpeed: 0.3, AmpPeriod: 5400,
	}, area, seed+1)
	pres := New(Config{
		Name: "pres", Base: 1013, Amplitude: 3, CorrLength: 400,
		Bumps: 10, Noise: 0.1, DriftSpeed: 0.2, AmpPeriod: 7200,
	}, area, seed+2)
	light := New(Config{
		Name: "light", Base: 500, Amplitude: 250, CorrLength: 120,
		Bumps: 30, Noise: 5, DriftSpeed: 0.5, AmpPeriod: 1800,
	}, area, seed+3)
	e.Add(temp)
	e.Add(hum)
	e.Add(pres)
	e.Add(light)
	// Warm air holds more moisture but relative humidity drops; pressure
	// falls slightly with temperature. Values are illustrative.
	e.Couple("hum", "temp", 0, -0.8)
	e.Couple("pres", "temp", 0, -0.15)
	return e
}
