package core

import (
	"reflect"
	"testing"

	"sensjoin/internal/field"
	"sensjoin/internal/zorder"
)

// quietEnvironment builds fields with negligible measurement noise and
// slow drift, so consecutive snapshots are temporally correlated at cell
// granularity.
func quietEnvironment(r *Runner, seed int64) *field.Environment {
	e := field.NewEnvironment()
	e.Add(field.New(field.Config{
		Name: "temp", Base: 20, Amplitude: 4, CorrLength: 160,
		Bumps: 24, Noise: 0.002, DriftSpeed: 0.01, AmpPeriod: 72000,
	}, r.Dep.Area, seed))
	e.Add(field.New(field.Config{
		Name: "hum", Base: 55, Amplitude: 6, CorrLength: 200,
		Bumps: 18, Noise: 0.01, DriftSpeed: 0.01, AmpPeriod: 72000,
	}, r.Dep.Area, seed+1))
	e.Add(field.New(field.Config{
		Name: "pres", Base: 1013, Amplitude: 3, CorrLength: 400,
		Bumps: 10, Noise: 0.01, DriftSpeed: 0.01, AmpPeriod: 72000,
	}, r.Dep.Area, seed+2))
	return e
}

func TestDiffKeys(t *testing.T) {
	a := []zorder.Key{1, 3, 5, 7}
	b := []zorder.Key{3, 7, 9}
	if got := diffKeys(a, b); !reflect.DeepEqual(got, []zorder.Key{1, 5}) {
		t.Fatalf("diffKeys = %v", got)
	}
	if got := diffKeys(nil, b); len(got) != 0 {
		t.Fatalf("diffKeys(nil, b) = %v", got)
	}
	if got := diffKeys(a, nil); !reflect.DeepEqual(got, a) {
		t.Fatalf("diffKeys(a, nil) = %v", got)
	}
}

func TestContStateEnsure(t *testing.T) {
	c := newContState(5)
	c.Rounds = 3
	if got := c.ensure(5); got != c {
		t.Fatal("same size must keep state")
	}
	got := c.ensure(8)
	if got == c || got.n != 8 || got.Rounds != 0 {
		t.Fatal("resize must reset state")
	}
	var nilState *contState
	if nilState.ensure(4) == nil {
		t.Fatal("nil state must allocate")
	}
}

// Every round of the incremental method must return exactly the oracle
// result for that round's snapshot, while the fields drift.
func TestIncrementalCorrectEveryRound(t *testing.T) {
	r := testRunner(t, 150, 201)
	m := NewContinuousSENSJoin()
	src := qBand(0.4)
	for round := 0; round < 5; round++ {
		tm := float64(round) * 60
		x, err := execSQL(r, src, tm)
		if err != nil {
			t.Fatal(err)
		}
		truth, err := GroundTruth(x)
		if err != nil {
			t.Fatal(err)
		}
		res, err := r.Run(src, m, tm)
		if err != nil {
			t.Fatal(err)
		}
		sameTable(t, truth, res, "incremental")
	}
	if m.Rounds() != 5 {
		t.Fatalf("Rounds = %d, want 5", m.Rounds())
	}
}

// With slow drift the filter changes little between rounds, so the
// incremental mode must transmit substantially fewer filter bytes than
// re-sending the full filter every round. The standard environment's
// measurement noise (sigma = half a temperature cell) would re-randomize
// the keys every round, so this test uses a low-noise field: temporal
// correlation at cell granularity is exactly the precondition the
// paper's future-work idea states.
func TestIncrementalSavesFilterBytes(t *testing.T) {
	src := qBand(0.5)
	const rounds = 6
	const period = 30.0 // short period => high temporal correlation

	run := func(m Method) int64 {
		r := testRunner(t, 300, 203)
		r.Env = quietEnvironment(r, 203)
		for round := 0; round < rounds; round++ {
			if _, err := r.Run(src, m, float64(round)*period); err != nil {
				t.Fatal(err)
			}
		}
		return r.Stats.TotalTxBytes(PhaseFilterDissem)
	}
	full := run(NewSENSJoin())
	incr := run(NewContinuousSENSJoin())
	if incr >= full {
		t.Fatalf("incremental filter bytes %d not below full %d", incr, full)
	}
	t.Logf("filter bytes over %d rounds: full=%d incremental=%d (%.0f%% saved)",
		rounds, full, incr, 100*(1-float64(incr)/float64(full)))
}

// A routing change between rounds desynchronizes caches; the protocol
// must stay correct (assume-all fallback + resync) and recover to delta
// mode afterwards.
func TestIncrementalSurvivesTreeChange(t *testing.T) {
	r := testRunner(t, 150, 207)
	m := NewContinuousSENSJoin()
	src := qBand(0.4)

	runRound := func(round int) {
		tm := float64(round) * 30
		x, err := execSQL(r, src, tm)
		if err != nil {
			t.Fatal(err)
		}
		truth, err := GroundTruth(x)
		if err != nil {
			t.Fatal(err)
		}
		res, err := r.Run(src, m, tm)
		if err != nil {
			t.Fatal(err)
		}
		sameTable(t, truth, res, "round")
	}

	runRound(0)
	runRound(1)
	// Cut a tree edge and repair: many nodes change parents.
	child, parent := failLink(r)
	r.Net.LinkDown(child, parent)
	r.RebuildTree()
	runRound(2) // desync round: assume-all fallbacks, still exact
	runRound(3) // resynced via need-full
	runRound(4)
}

// First round of the incremental method must cost the same as plain
// SENS-Join (full filters everywhere).
func TestIncrementalFirstRoundEqualsPlain(t *testing.T) {
	src := qBand(0.4)
	r1 := testRunner(t, 200, 209)
	if _, err := r1.Run(src, NewSENSJoin(), 0); err != nil {
		t.Fatal(err)
	}
	plain := r1.Stats.TotalTx(SENSPhases...)
	r2 := testRunner(t, 200, 209)
	if _, err := r2.Run(src, NewContinuousSENSJoin(), 0); err != nil {
		t.Fatal(err)
	}
	incr := r2.Stats.TotalTx(SENSPhases...)
	if plain != incr {
		t.Fatalf("first round differs: plain %d vs incremental %d", plain, incr)
	}
}

// An identical snapshot in consecutive rounds produces (nearly) empty
// deltas: the filter phase cost must collapse after round one.
func TestIncrementalIdenticalSnapshotCollapses(t *testing.T) {
	src := qBand(0.5)
	r := testRunner(t, 300, 211)
	m := NewContinuousSENSJoin()
	if _, err := r.Run(src, m, 0); err != nil {
		t.Fatal(err)
	}
	firstBytes := r.Stats.TotalTxBytes(PhaseFilterDissem)
	r.Stats.Reset()
	if _, err := r.Run(src, m, 0); err != nil { // same time = same snapshot
		t.Fatal(err)
	}
	secondBytes := r.Stats.TotalTxBytes(PhaseFilterDissem)
	if secondBytes*3 > firstBytes {
		t.Fatalf("identical snapshot: second round %dB vs first %dB — deltas not collapsing",
			secondBytes, firstBytes)
	}
	t.Logf("filter bytes: first round %d, identical second round %d", firstBytes, secondBytes)
}
