package core

import (
	"fmt"
	"math"
	"testing"
)

// The cost model's predictions must track the simulator: within a
// moderate relative error for both methods across the fraction sweep,
// and — the part that matters for planning — picking the actual winner.
func TestAdviseTracksSimulator(t *testing.T) {
	r := testRunner(t, 300, 601)
	for _, theta := range []float64{0.5, 3, 5, 7, 9} {
		src := fmt.Sprintf(`SELECT A.temp, A.hum, B.temp, B.hum
			FROM Sensors A, Sensors B WHERE A.temp - B.temp > %g ONCE`, theta)
		x, err := execSQL(r, src, 0)
		if err != nil {
			t.Fatal(err)
		}
		adv, err := Advise(x)
		if err != nil {
			t.Fatal(err)
		}
		ext, _, err := runPackets(r, src, External{})
		if err != nil {
			t.Fatal(err)
		}
		sens, _, err := runPackets(r, src, NewSENSJoin())
		if err != nil {
			t.Fatal(err)
		}
		relErr := func(pred float64, act int64) float64 {
			return math.Abs(pred-float64(act)) / float64(act)
		}
		if e := relErr(adv.PredictedExternal, ext); e > 0.25 {
			t.Fatalf("theta=%g: external prediction %.0f vs actual %d (%.0f%% off)",
				theta, adv.PredictedExternal, ext, 100*e)
		}
		if e := relErr(adv.PredictedSENS, sens); e > 0.45 {
			t.Fatalf("theta=%g: sens prediction %.0f vs actual %d (%.0f%% off)",
				theta, adv.PredictedSENS, sens, 100*e)
		}
		wantSENS := sens < ext
		gotSENS := adv.Use == "sens-join"
		// Near the break-even both answers are defensible; only flag
		// disagreements when the margin exceeds 15%.
		margin := math.Abs(float64(sens)-float64(ext)) / float64(ext)
		if margin > 0.15 && wantSENS != gotSENS {
			t.Fatalf("theta=%g: model picked %s but simulator says sens=%d ext=%d",
				theta, adv.Use, sens, ext)
		}
		t.Logf("theta=%g f=%.2f: ext %d (pred %.0f), sens %d (pred %.0f), pick=%s break-even=%.2f",
			theta, adv.ExpectedFraction, ext, adv.PredictedExternal, sens, adv.PredictedSENS, adv.Use, adv.BreakEvenFraction)
	}
}

func TestAdviseFields(t *testing.T) {
	r := testRunner(t, 120, 603)
	x, err := execSQL(r, qBand(0.2), 0)
	if err != nil {
		t.Fatal(err)
	}
	adv, err := Advise(x)
	if err != nil {
		t.Fatal(err)
	}
	if adv.PredictedExternal <= 0 || adv.PredictedSENS <= 0 {
		t.Fatal("predictions must be positive")
	}
	if adv.ExpectedFraction < 0 || adv.ExpectedFraction > 1 {
		t.Fatalf("fraction %g out of range", adv.ExpectedFraction)
	}
	if adv.BreakEvenFraction <= 0 || adv.BreakEvenFraction > 1 {
		t.Fatalf("break-even %g out of range", adv.BreakEvenFraction)
	}
}
