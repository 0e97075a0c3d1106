package query

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestIntervalBasics(t *testing.T) {
	i := Exact(5)
	if !i.IsExact() || i.Lo != 5 || i.Hi != 5 {
		t.Fatal("Exact(5) misbehaves")
	}
	e := Everything()
	if e.Lo > -1e308 || e.Hi < 1e308 {
		t.Fatal("Everything should contain all finite values")
	}
}

func TestIntervalArithmetic(t *testing.T) {
	a := Interval{1, 2}
	b := Interval{-3, 4}
	if got := a.Add(b); got != (Interval{-2, 6}) {
		t.Fatalf("Add = %+v", got)
	}
	if got := a.Sub(b); got != (Interval{-3, 5}) {
		t.Fatalf("Sub = %+v", got)
	}
	if got := a.Neg(); got != (Interval{-2, -1}) {
		t.Fatalf("Neg = %+v", got)
	}
	if got := a.Mul(b); got != (Interval{-6, 8}) {
		t.Fatalf("Mul = %+v", got)
	}
	if got := a.Div(Interval{2, 4}); got != (Interval{0.25, 1}) {
		t.Fatalf("Div = %+v", got)
	}
	if got := a.Div(b); !math.IsInf(got.Lo, -1) || !math.IsInf(got.Hi, 1) {
		t.Fatalf("Div by zero-containing interval should be unbounded, got %+v", got)
	}
}

func TestIntervalAbsSquareSqrt(t *testing.T) {
	if got := (Interval{2, 3}).Abs(); got != (Interval{2, 3}) {
		t.Fatalf("Abs positive = %+v", got)
	}
	if got := (Interval{-3, -2}).Abs(); got != (Interval{2, 3}) {
		t.Fatalf("Abs negative = %+v", got)
	}
	if got := (Interval{-2, 3}).Abs(); got != (Interval{0, 3}) {
		t.Fatalf("Abs mixed = %+v", got)
	}
	if got := (Interval{-2, 3}).Square(); got != (Interval{0, 9}) {
		t.Fatalf("Square mixed = %+v", got)
	}
	if got := (Interval{4, 9}).Sqrt(); got != (Interval{2, 3}) {
		t.Fatalf("Sqrt = %+v", got)
	}
	if got := (Interval{-4, 9}).Sqrt(); got != (Interval{0, 3}) {
		t.Fatalf("Sqrt clamps negatives: %+v", got)
	}
}

func TestIntervalMinMax(t *testing.T) {
	a, b := Interval{1, 5}, Interval{2, 3}
	if got := a.Min(b); got != (Interval{1, 3}) {
		t.Fatalf("Min = %+v", got)
	}
	if got := a.Max(b); got != (Interval{2, 5}) {
		t.Fatalf("Max = %+v", got)
	}
}

func TestTriLogic(t *testing.T) {
	if True.And(True) != True || True.And(Maybe) != Maybe || False.And(Maybe) != False {
		t.Fatal("And table wrong")
	}
	if False.Or(False) != False || False.Or(Maybe) != Maybe || True.Or(Maybe) != True {
		t.Fatal("Or table wrong")
	}
	if True.Not() != False || False.Not() != True || Maybe.Not() != Maybe {
		t.Fatal("Not table wrong")
	}
	if !True.Possible() || !Maybe.Possible() || False.Possible() {
		t.Fatal("Possible wrong")
	}
	if False.String() != "false" || True.String() != "true" || Maybe.String() != "maybe" {
		t.Fatal("String wrong")
	}
}

func TestCmpOverIntervals(t *testing.T) {
	if CmpLess(Interval{1, 2}, Interval{3, 4}) != True {
		t.Fatal("disjoint less should be True")
	}
	if CmpLess(Interval{3, 4}, Interval{1, 2}) != False {
		t.Fatal("reversed disjoint less should be False")
	}
	if CmpLess(Interval{1, 3}, Interval{2, 4}) != Maybe {
		t.Fatal("overlapping less should be Maybe")
	}
	if CmpLess(Interval{1, 2}, Interval{2, 3}) != Maybe {
		t.Fatal("touching less should be Maybe (2 < 2 false, 1 < 3 true)")
	}
	if CmpLessEq(Interval{1, 2}, Interval{2, 3}) != True {
		t.Fatal("touching leq should be True")
	}
	if CmpEq(Exact(2), Exact(2)) != True {
		t.Fatal("equal exact should be True")
	}
	if CmpEq(Interval{1, 2}, Interval{3, 4}) != False {
		t.Fatal("disjoint eq should be False")
	}
	if CmpEq(Interval{1, 3}, Interval{2, 4}) != Maybe {
		t.Fatal("overlapping eq should be Maybe")
	}
}

// Soundness: for random intervals and random points inside them, the
// exact comparison result must be compatible with the tri-state result.
func TestQuickCmpSoundness(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		ri := func() Interval {
			a, b := rng.Float64()*20-10, rng.Float64()*20-10
			if a > b {
				a, b = b, a
			}
			return Interval{a, b}
		}
		l, r := ri(), ri()
		lv := l.Lo + rng.Float64()*(l.Hi-l.Lo)
		rv := r.Lo + rng.Float64()*(r.Hi-r.Lo)
		check := func(tri Tri, exact bool) bool {
			switch tri {
			case True:
				return exact
			case False:
				return !exact
			default:
				return true
			}
		}
		return check(CmpLess(l, r), lv < rv) &&
			check(CmpLessEq(l, r), lv <= rv) &&
			check(CmpEq(l, r), lv == rv)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Soundness: interval arithmetic must enclose the pointwise results.
func TestQuickArithmeticEnclosure(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		ri := func() (Interval, float64) {
			a, b := rng.Float64()*20-10, rng.Float64()*20-10
			if a > b {
				a, b = b, a
			}
			v := a + rng.Float64()*(b-a)
			return Interval{a, b}, v
		}
		x, xv := ri()
		y, yv := ri()
		eps := 1e-9
		in := func(i Interval, v float64) bool {
			return v >= i.Lo-eps && v <= i.Hi+eps
		}
		ok := in(x.Add(y), xv+yv) &&
			in(x.Sub(y), xv-yv) &&
			in(x.Mul(y), xv*yv) &&
			in(x.Neg(), -xv) &&
			in(x.Abs(), math.Abs(xv)) &&
			in(x.Square(), xv*xv) &&
			in(x.Min(y), math.Min(xv, yv)) &&
			in(x.Max(y), math.Max(xv, yv))
		if yv != 0 {
			ok = ok && in(x.Div(y), xv/yv)
		}
		if xv >= 0 {
			ok = ok && in(x.Sqrt(), math.Sqrt(xv))
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
