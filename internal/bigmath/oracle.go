package bigmath

import (
	"fmt"
	"math"
	"math/big"

	"repro/internal/fault"
	"repro/internal/fp"
)

// SpecialBits handles the IEEE special-value semantics of the ten functions:
// non-finite inputs, signed zeros and domain errors. It returns the result
// bit pattern in out and true when x is such a case; all remaining inputs
// have finite nonzero mathematical results obtained from ExactValue or the
// Ziv loop.
func SpecialBits(f Func, x float64, out fp.Format) (uint64, bool) {
	if math.IsNaN(x) {
		return out.NaN(), true
	}
	inf := math.IsInf(x, 0)
	neg := math.Signbit(x)
	switch f {
	case Ln, Log2, Log10:
		switch {
		case x == 0:
			return out.Inf(true), true
		case neg:
			return out.NaN(), true
		case inf:
			return out.Inf(false), true
		}
	case Exp, Exp2, Exp10:
		if inf {
			if neg {
				return out.Zero(false), true
			}
			return out.Inf(false), true
		}
	case Sinh:
		if inf {
			return out.Inf(neg), true
		}
		if x == 0 {
			return out.Zero(neg), true
		}
	case Cosh:
		if inf {
			return out.Inf(false), true
		}
	case SinPi:
		if inf {
			return out.NaN(), true
		}
		if x == 0 {
			return out.Zero(neg), true
		}
	case CosPi:
		if inf {
			return out.NaN(), true
		}
	}
	return 0, false
}

// ExactValue reports the inputs whose mathematical result is an exact
// binary rational (so the Ziv loop would never terminate) and returns that
// result as an exact big.Float. The case analysis is number-theoretic:
//
//   - ln(x) is transcendental for representable x ≠ 1 (Lindemann);
//   - log2(x) is irrational unless x = 2^k (else 2^(p/q) would be rational);
//   - log10(x) is irrational unless x = 10^k, and binary-representable
//     powers of ten require k ≥ 0;
//   - e^x is transcendental for rational x ≠ 0 (Lindemann);
//   - 2^x and 10^x are irrational for non-integer rational x
//     (Gelfond–Schneider);
//   - sinh/cosh of nonzero algebraic x is transcendental (Lindemann);
//   - sin(πx)/cos(πx) for binary-rational x are irrational unless 2x is an
//     integer (Niven: the rational values ±1/2 occur only at denominators
//     divisible by 3, which are not binary).
func ExactValue(f Func, x float64) (*big.Float, bool) {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return nil, false
	}
	exact := func(v float64) (*big.Float, bool) {
		return new(big.Float).SetPrec(64).SetFloat64(v), true
	}
	switch f {
	case Ln:
		if x == 1 {
			return exact(0)
		}
	case Log2:
		if x > 0 {
			if frac, exp := math.Frexp(x); frac == 0.5 {
				return new(big.Float).SetPrec(64).SetInt64(int64(exp - 1)), true
			}
		}
	case Log10:
		// 10^k = 2^k·5^k is a double only for 0 ≤ k ≤ 22, where 5^k fits
		// in 53 bits, and math.Pow10 returns those powers exactly.
		if x >= 1 && x <= 1e22 {
			k := math.Round(math.Log10(x))
			if math.Float64bits(x) == math.Float64bits(math.Pow10(int(k))) {
				return new(big.Float).SetPrec(64).SetInt64(int64(k)), true
			}
		}
	case Exp:
		if x == 0 {
			return exact(1)
		}
	case Exp2:
		if x == math.Trunc(x) && math.Abs(x) < 1<<20 {
			v := new(big.Float).SetPrec(64).SetInt64(1)
			v.SetMantExp(v, int(x))
			return v, true
		}
	case Exp10:
		if x == 0 {
			return exact(1)
		}
		if x == math.Trunc(x) && x > 0 && x < 512 {
			p := new(big.Int).Exp(big.NewInt(10), big.NewInt(int64(x)), nil)
			return new(big.Float).SetPrec(uint(p.BitLen()) + 1).SetInt(p), true
		}
	case Sinh:
		if x == 0 {
			return exact(x) // preserves the sign of zero
		}
	case Cosh:
		if x == 0 {
			return exact(1)
		}
	case SinPi:
		if 2*x == math.Trunc(2*x) {
			if x == math.Trunc(x) {
				return exact(math.Copysign(0, x))
			}
			z := math.Mod(math.Abs(x), 2) // 0.5 or 1.5
			v := 1.0
			if z == 1.5 {
				v = -1
			}
			if math.Signbit(x) {
				v = -v
			}
			return exact(v)
		}
	case CosPi:
		if 2*x == math.Trunc(2*x) {
			z := math.Mod(math.Abs(x), 2)
			switch z {
			case 0:
				return exact(1)
			case 1:
				return exact(-1)
			default: // 0.5, 1.5
				return exact(0)
			}
		}
	}
	return nil, false
}

// saturated short-circuits the exponential-family functions when |x| is so
// large that the result is out of range of every supported format (|E| ≤ 10
// means overflow thresholds below 512 and underflow above -1600): it
// returns a proxy value on the same side of every rounding boundary as the
// true result, avoiding astronomically large argument reductions. The proxy
// is exact in its effect: rounding only depends on the result being beyond
// the format's finite range (or strictly between 0 and half the minimum
// subnormal) with a nonzero sticky contribution, which both the true value
// and the proxy satisfy.
func saturated(f Func, x float64) (*big.Float, bool) {
	const lim = 4096
	if math.Abs(x) <= lim {
		return nil, false
	}
	huge := func(neg bool) *big.Float {
		v := new(big.Float).SetPrec(32).SetInt64(1)
		v.SetMantExp(v, 1<<20)
		if neg {
			v.Neg(v)
		}
		return v
	}
	tiny := func(neg bool) *big.Float {
		v := new(big.Float).SetPrec(32).SetInt64(1)
		v.SetMantExp(v, -(1 << 20))
		if neg {
			v.Neg(v)
		}
		return v
	}
	switch f {
	case Exp, Exp2, Exp10:
		if x > 0 {
			return huge(false), true
		}
		return tiny(false), true
	case Sinh:
		return huge(x < 0), true
	case Cosh:
		return huge(false), true
	}
	return nil, false
}

// zivStartPrec is the initial working precision of the Ziv loop; generous
// for every format this package targets (≤ 34 bits) so escalation is rare.
const zivStartPrec = 96

// zivMaxPrec bounds escalation; reaching it means a rounding-boundary
// result slipped past ExactValue, which would be a bug.
const zivMaxPrec = 1 << 16

// CorrectlyRounded returns the bit pattern of f(x) correctly rounded into
// the format out under the given rounding mode. x must be the exact input
// value (finite values of any supported format are exact float64s).
func CorrectlyRounded(f Func, x float64, out fp.Format, mode fp.Mode) uint64 {
	if bits, ok := SpecialBits(f, x, out); ok {
		return bits
	}
	if v, ok := ExactValue(f, x); ok {
		return out.FromBig(v, mode)
	}
	if v, ok := saturated(f, x); ok {
		return out.FromBig(v, mode)
	}
	return out.FromBig(EvalUnambiguous(f, x, out, mode), mode)
}

// EvalUnambiguous runs the Ziv loop: it evaluates f(x) at increasing
// precision until the error envelope [y−ε, y+ε] rounds to a single value of
// out under mode, then returns that evaluation. The caller must have
// filtered specials and exact results. Exhausting zivMaxPrec (which would
// mean a rounding-boundary result slipped past ExactValue) panics with a
// typed *fault.Error carrying CodeOracleExhausted; the worker pool
// recovers the panic and surfaces it with job context.
func EvalUnambiguous(f Func, x float64, out fp.Format, mode fp.Mode) *big.Float {
	for prec := uint(zivStartPrec); prec <= zivMaxPrec; prec *= 2 {
		y := Eval(f, x, prec)
		if y.Sign() == 0 {
			continue // result magnitude underflowed the series: escalate
		}
		eps := new(big.Float).SetPrec(32).SetInt64(1)
		eps.SetMantExp(eps, y.MantExp(nil)-int(prec)+28)
		lo := new(big.Float).SetPrec(prec+4).Sub(y, eps)
		hi := new(big.Float).SetPrec(prec+4).Add(y, eps)
		if out.FromBig(lo, mode) == out.FromBig(hi, mode) {
			return y
		}
	}
	panic(fault.New(fault.CodeOracleExhausted, "enumerate", "ziv",
		fmt.Errorf("bigmath: Ziv loop exhausted for %v(%g) at prec %d", f, x, zivMaxPrec)).
		WithFunc(f.String()))
}
