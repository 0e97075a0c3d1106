// Package query implements the declarative query layer of SENS-Join: a
// lexer and parser for the paper's SQL dialect (§III, "Problem
// statement"), an expression AST with exact evaluation, and an interval
// (tri-state) evaluation mode.
//
// The interval mode is what makes the quantized pre-computation correct:
// the base station joins *cells*, not values (§V-B, footnote 2). A join
// condition evaluated over cell intervals returns True, False, or Maybe;
// a candidate pair is discarded only on a definite False, so quantization
// can produce false positives (harmless: filtered by the exact final
// join) but never false negatives.
package query

import "math"

// Interval is a closed numeric interval [Lo, Hi].
type Interval struct {
	Lo, Hi float64
}

// Exact returns the degenerate interval [v, v].
func Exact(v float64) Interval { return Interval{v, v} }

// IsExact reports whether the interval is a single point.
func (i Interval) IsExact() bool { return i.Lo == i.Hi }

// Everything is the interval covering all reals.
func Everything() Interval { return Interval{math.Inf(-1), math.Inf(1)} }

// Add returns i + j.
func (i Interval) Add(j Interval) Interval { return Interval{i.Lo + j.Lo, i.Hi + j.Hi} }

// Sub returns i - j.
func (i Interval) Sub(j Interval) Interval { return Interval{i.Lo - j.Hi, i.Hi - j.Lo} }

// Neg returns -i.
func (i Interval) Neg() Interval { return Interval{-i.Hi, -i.Lo} }

// Mul returns i * j.
func (i Interval) Mul(j Interval) Interval {
	a, b, c, d := i.Lo*j.Lo, i.Lo*j.Hi, i.Hi*j.Lo, i.Hi*j.Hi
	return Interval{min4(a, b, c, d), max4(a, b, c, d)}
}

// Div returns i / j. If j contains zero the result is unbounded: the
// conservative answer that keeps tri-state evaluation sound.
func (i Interval) Div(j Interval) Interval {
	if j.Lo <= 0 && j.Hi >= 0 {
		return Everything()
	}
	a, b, c, d := i.Lo/j.Lo, i.Lo/j.Hi, i.Hi/j.Lo, i.Hi/j.Hi
	return Interval{min4(a, b, c, d), max4(a, b, c, d)}
}

// Abs returns |i|.
func (i Interval) Abs() Interval {
	switch {
	case i.Lo >= 0:
		return i
	case i.Hi <= 0:
		return Interval{-i.Hi, -i.Lo}
	default:
		return Interval{0, math.Max(-i.Lo, i.Hi)}
	}
}

// Square returns i^2.
func (i Interval) Square() Interval {
	a := i.Abs()
	return Interval{a.Lo * a.Lo, a.Hi * a.Hi}
}

// Sqrt returns sqrt(i) with the lower bound clamped at zero (negative
// parts cannot occur for in-range inputs; clamping keeps soundness for
// out-of-range cells).
func (i Interval) Sqrt() Interval {
	lo := i.Lo
	if lo < 0 {
		lo = 0
	}
	hi := i.Hi
	if hi < 0 {
		hi = 0
	}
	return Interval{math.Sqrt(lo), math.Sqrt(hi)}
}

// Min returns the pointwise minimum of i and j.
func (i Interval) Min(j Interval) Interval {
	return Interval{math.Min(i.Lo, j.Lo), math.Min(i.Hi, j.Hi)}
}

// Max returns the pointwise maximum of i and j.
func (i Interval) Max(j Interval) Interval {
	return Interval{math.Max(i.Lo, j.Lo), math.Max(i.Hi, j.Hi)}
}

func min4(a, b, c, d float64) float64 {
	return math.Min(math.Min(a, b), math.Min(c, d))
}

func max4(a, b, c, d float64) float64 {
	return math.Max(math.Max(a, b), math.Max(c, d))
}

// Tri is three-valued logic for predicates over intervals.
type Tri int

// Tri-state truth values.
const (
	False Tri = iota
	Maybe
	True
)

// String returns the truth value's name.
func (t Tri) String() string {
	switch t {
	case False:
		return "false"
	case True:
		return "true"
	default:
		return "maybe"
	}
}

// And combines with three-valued conjunction.
func (t Tri) And(u Tri) Tri {
	if t == False || u == False {
		return False
	}
	if t == True && u == True {
		return True
	}
	return Maybe
}

// Or combines with three-valued disjunction.
func (t Tri) Or(u Tri) Tri {
	if t == True || u == True {
		return True
	}
	if t == False && u == False {
		return False
	}
	return Maybe
}

// Not negates, leaving Maybe unchanged.
func (t Tri) Not() Tri {
	switch t {
	case True:
		return False
	case False:
		return True
	default:
		return Maybe
	}
}

// Possible reports whether the predicate could hold (True or Maybe).
// The pre-computation join keeps a pair iff Possible.
func (t Tri) Possible() bool { return t != False }

// CmpLess compares l < r over intervals.
func CmpLess(l, r Interval) Tri {
	if l.Hi < r.Lo {
		return True
	}
	if l.Lo >= r.Hi {
		return False
	}
	return Maybe
}

// CmpLessEq compares l <= r over intervals.
func CmpLessEq(l, r Interval) Tri {
	if l.Hi <= r.Lo {
		return True
	}
	if l.Lo > r.Hi {
		return False
	}
	return Maybe
}

// CmpEq compares l = r over intervals.
func CmpEq(l, r Interval) Tri {
	if l.Hi < r.Lo || r.Hi < l.Lo {
		return False
	}
	if l.IsExact() && r.IsExact() && l.Lo == r.Lo {
		return True
	}
	return Maybe
}
