// Package dd implements the ten elementary functions in double-double
// arithmetic with relative error below ~2^-60. It is the computational
// core of the "accurate double library" comparators (the Intel-libm and
// CR-LIBM substitutes): fast enough to benchmark against, accurate enough
// for a Ziv first step whose slow path almost never triggers.
//
// The argument reductions mirror internal/reduction's schemes, but carry
// the low-order word of every step and use double-double tables computed
// from the arbitrary-precision oracle at init.
package dd

import (
	"math"

	"repro/internal/bigmath"
)

// DD is an unevaluated sum Hi + Lo with |Lo| ≤ ulp(Hi)/2.
type DD struct {
	Hi, Lo float64
}

// Value collapses the pair to the nearest double (preserving the sign of
// zero, which the IEEE addition -0 + 0 = +0 would lose).
func (d DD) Value() float64 {
	if d.Lo == 0 {
		return d.Hi
	}
	return d.Hi + d.Lo
}

// twoSum returns (s, e) with s = rn(a+b) and a+b = s+e exactly.
func twoSum(a, b float64) (s, e float64) {
	s = a + b
	bb := s - a
	e = (a - (s - bb)) + (b - bb)
	return s, e
}

// fastTwoSum is twoSum under the precondition |a| ≥ |b| (or a == 0).
func fastTwoSum(a, b float64) (s, e float64) {
	s = a + b
	e = b - (s - a)
	return s, e
}

// twoProd returns (p, e) with p = rn(a·b) and a·b = p+e exactly (FMA).
func twoProd(a, b float64) (p, e float64) {
	p = a * b
	e = math.FMA(a, b, -p)
	return p, e
}

// mulDDFloat multiplies a DD by a double.
func mulDDFloat(d DD, f float64) DD {
	p, e := twoProd(d.Hi, f)
	e = math.FMA(d.Lo, f, e)
	hi, lo := fastTwoSum(p, e)
	return DD{hi, lo}
}

// addDD adds two DDs (Dekker/Knuth style, error O(2^-105)).
func addDD(a, b DD) DD {
	s, e := twoSum(a.Hi, b.Hi)
	e += a.Lo + b.Lo
	hi, lo := fastTwoSum(s, e)
	return DD{hi, lo}
}

// mulDD multiplies two DDs.
func mulDD(a, b DD) DD {
	p, e := twoProd(a.Hi, b.Hi)
	e += a.Hi*b.Lo + a.Lo*b.Hi
	hi, lo := fastTwoSum(p, e)
	return DD{hi, lo}
}

// scale multiplies by 2^k exactly.
func (d DD) scale(k int) DD {
	return DD{math.Ldexp(d.Hi, k), math.Ldexp(d.Lo, k)}
}

// Eval computes fn(x) as a DD with relative error below ~2^-60 for regular
// inputs; special inputs (NaN, infinities, out-of-double-range results,
// exact zeros) produce the conventional double special values in Hi, and
// so does an fn outside the ten functions: NaN.
func Eval(fn bigmath.Func, x float64) DD {
	if math.IsNaN(x) {
		return DD{Hi: math.NaN()}
	}
	switch fn {
	case bigmath.Exp:
		return expFamily(x, expBase)
	case bigmath.Exp2:
		return expFamily(x, exp2Base)
	case bigmath.Exp10:
		return expFamily(x, exp10Base)
	case bigmath.Ln:
		return logFamily(x, lnBase)
	case bigmath.Log2:
		return logFamily(x, log2Base)
	case bigmath.Log10:
		return logFamily(x, log10Base)
	case bigmath.Sinh:
		return sinhCosh(x, true)
	case bigmath.Cosh:
		return sinhCosh(x, false)
	case bigmath.SinPi:
		return sinCosPi(x, true)
	case bigmath.CosPi:
		return sinCosPi(x, false)
	}
	return DD{Hi: math.NaN()}
}
