package fp

import (
	"fmt"
	"math"
	"math/big"
	"math/bits"
)

// Mode is a rounding direction. The five IEEE-754 modes are supported plus
// round-to-odd, the non-standard mode at the heart of the RLibm-All /
// RLIBM-Prog construction: a real value that is exactly representable
// rounds to itself; any other real rounds to the adjacent representable
// value whose mantissa is odd.
type Mode int

const (
	// RoundNearestEven is round-to-nearest, ties to even (rn).
	RoundNearestEven Mode = iota
	// RoundNearestAway is round-to-nearest, ties away from zero (ra).
	RoundNearestAway
	// RoundTowardZero is truncation (rz).
	RoundTowardZero
	// RoundTowardPositive is rounding toward +∞ (ru).
	RoundTowardPositive
	// RoundTowardNegative is rounding toward -∞ (rd).
	RoundTowardNegative
	// RoundToOdd is the non-standard round-to-odd mode (ro).
	RoundToOdd

	numModes = int(RoundToOdd) + 1
)

// StandardModes lists the five IEEE-754 rounding modes.
var StandardModes = []Mode{
	RoundNearestEven, RoundNearestAway, RoundTowardZero,
	RoundTowardPositive, RoundTowardNegative,
}

// AllModes lists the five IEEE modes plus round-to-odd.
var AllModes = append(append([]Mode{}, StandardModes...), RoundToOdd)

func (m Mode) String() string {
	switch m {
	case RoundNearestEven:
		return "rn"
	case RoundNearestAway:
		return "ra"
	case RoundTowardZero:
		return "rz"
	case RoundTowardPositive:
		return "ru"
	case RoundTowardNegative:
		return "rd"
	case RoundToOdd:
		return "ro"
	}
	return fmt.Sprintf("Mode(%d)", int(m))
}

// ParseMode parses the short mode names used by Mode.String.
func ParseMode(s string) (Mode, error) {
	for _, m := range AllModes {
		if m.String() == s {
			return m, nil
		}
	}
	return 0, fmt.Errorf("fp: unknown rounding mode %q", s)
}

// roundUnits decides, for a magnitude of n result units plus a discarded
// fraction described by (guard, sticky), whether to increment n. guard is
// the first discarded bit; sticky reports whether any lower discarded bit
// is set. negative is the sign of the value being rounded.
func roundUnits(m Mode, n uint64, guard, sticky, negative bool) uint64 {
	inexact := guard || sticky
	if !inexact {
		return n
	}
	switch m {
	case RoundNearestEven:
		if guard && (sticky || n&1 == 1) {
			return n + 1
		}
	case RoundNearestAway:
		if guard {
			return n + 1
		}
	case RoundTowardZero:
		// truncate
	case RoundTowardPositive:
		if !negative {
			return n + 1
		}
	case RoundTowardNegative:
		if negative {
			return n + 1
		}
	case RoundToOdd:
		if n&1 == 0 {
			return n + 1
		}
	}
	return n
}

// overflowBits returns the bit pattern produced when the rounded magnitude
// exceeds the largest finite value: toward-zero-like modes saturate at
// maxFinite while nearest modes produce ±∞. Round-to-odd saturates at
// maxFinite, whose mantissa is all ones and hence odd — this is exactly the
// behaviour required for the double-rounding theorem to extend to the
// overflow range.
func (f Format) overflowBits(m Mode, negative bool) uint64 {
	sign := uint64(0)
	if negative {
		sign = f.signMask()
	}
	switch m {
	case RoundNearestEven, RoundNearestAway:
		return sign | f.Inf(false)
	case RoundTowardZero, RoundToOdd:
		return sign | f.MaxFinite()
	case RoundTowardPositive:
		if negative {
			return sign | f.MaxFinite()
		}
		return f.Inf(false)
	case RoundTowardNegative:
		if negative {
			return sign | f.Inf(false)
		}
		return f.MaxFinite()
	}
	//lint:ignore barepanic exhaustive Mode switch; a new rounding mode is a compile-time change.
	panic("fp: bad mode")
}

// assembleBits builds the final bit pattern from a rounded magnitude
// expressed as n units of 2^qe, where qe is the exponent of one unit, at
// least the subnormal quantum EMin - MantBits. Carries from the mantissa
// into the exponent field fall out of the integer arithmetic, including the
// subnormal→normal transition.
func (f Format) assembleBits(m Mode, n uint64, qe int, negative bool) uint64 {
	p := uint(f.MantBits())
	sign := uint64(0)
	if negative {
		sign = f.signMask()
	}
	if n == 0 {
		return sign
	}
	// Rounding carries at most one bit (see quantize).
	if n >= 1<<(p+1) {
		n >>= 1
		qe++
	}
	var b uint64
	if n < 1<<p {
		// Subnormal result: valid only at the subnormal quantum.
		b = n
		if qe != f.EMin()-int(p) {
			//lint:ignore barepanic arithmetic invariant of the quantization; proven by the format algebra, not reachable from inputs.
			panic("fp: subnormal magnitude at non-subnormal quantum")
		}
	} else {
		e := qe + int(p) // unbiased exponent of the leading bit
		field := e + f.Bias()
		if field >= (1<<uint(f.expBits))-1 {
			return f.overflowBits(m, negative)
		}
		b = uint64(field)<<p + (n - 1<<p)
	}
	return sign | b
}

// float64 field layout.
const (
	f64FracBits = 52
	f64FracMask = 1<<f64FracBits - 1
	f64ExpMask  = 0x7ff
	f64Bias     = 1023
)

// mantExp splits the bit pattern of a finite nonzero float64 into an
// integer mantissa of at most 53 bits and the exponent of its unit:
// |v| = mant · 2^e2. Subnormals keep their short mantissa at e2 = -1074.
func mantExp(b uint64) (mant uint64, e2 int) {
	field := int(b>>f64FracBits) & f64ExpMask
	mant = b & f64FracMask
	if field == 0 {
		return mant, 1 - f64Bias - f64FracBits
	}
	return mant | 1<<f64FracBits, field - f64Bias - f64FracBits
}

// quantize, the rounding core of FromFloat64, FromSum and Rounder.Round,
// rounds the magnitude mant · 2^e2 (mant nonzero) under mode m to n
// units of 2^qe, the ulp of a format with p mantissa bits and subnormal
// quantum 2^minq. The shift s below is at most p+1-len(mant), so n has at
// most p+1 bits before rounding and at most 2^(p+1) after it.
//
//evalhot:loop
func quantize(mant uint64, e2 int, p uint, minq int, m Mode, negative bool) (n uint64, qe int) {
	// The leading bit of mant·2^e2 has exponent e2+len(mant)-1.
	qe = e2 + bits.Len64(mant) - 1 - int(p)
	if qe < minq {
		qe = minq
	}
	var guard, sticky bool
	if s := e2 - qe; s >= 0 {
		n = mant << uint(s)
	} else {
		// Shifts of 64 or more yield 0: a magnitude far below one unit
		// reads as guard=false, sticky=true.
		sh := uint(-s)
		n = mant >> sh
		guard = (mant>>(sh-1))&1 != 0
		sticky = mant&(1<<(sh-1)-1) != 0
	}
	return roundUnits(m, n, guard, sticky, negative), qe
}

// FromFloat64 rounds the exact real value v into the format under mode m
// and returns the resulting bit pattern. v is treated as an exact real
// number (every float64 is one); this is the production-path rounding used
// after range reduction, polynomial evaluation and output compensation,
// all of which run in float64.
func (f Format) FromFloat64(v float64, m Mode) uint64 {
	switch {
	case math.IsNaN(v):
		return f.NaN()
	case math.IsInf(v, 0):
		return f.Inf(math.Signbit(v))
	case v == 0:
		return f.Zero(math.Signbit(v))
	}
	negative := math.Signbit(v)
	p := uint(f.MantBits())
	mant, e2 := mantExp(math.Float64bits(v))
	n, qe := quantize(mant, e2, p, f.EMin()-int(p), m, negative)
	return f.assembleBits(m, n, qe, negative)
}

// FromBig rounds the exact real value x into the format under mode m. x may
// carry arbitrary precision; the rounding consumes every bit, so the result
// is the correctly rounded value of x. Infinite x maps to ±∞ and a zero x
// preserves its sign.
func (f Format) FromBig(x *big.Float, m Mode) uint64 {
	if x.IsInf() {
		return f.Inf(x.Signbit())
	}
	if x.Sign() == 0 {
		return f.Zero(x.Signbit())
	}
	negative := x.Signbit()
	mag := new(big.Float).SetPrec(x.Prec()).Abs(x)

	// mag = mant * 2^(exp - prec) with mant an integer of exactly prec bits
	// (leading bit set).
	mantf := new(big.Float).SetPrec(mag.Prec())
	exp := mag.MantExp(mantf) // mag = mantf * 2^exp, mantf in [0.5,1)
	p0 := f.MantBits()
	if exp >= f.EMax()+2 {
		// mag >= 2^(EMax+1) > maxFinite: certain overflow. Clamp early so
		// extreme exponents never reach the big.Int shifts below.
		return f.overflowBits(m, negative)
	}
	if exp < f.EMin()-p0-1 {
		// mag < minSubnormal/2 and not a tie: rounds from zero units with
		// only a sticky bit.
		n := roundUnits(m, 0, false, true, negative)
		return f.assembleBits(m, n, f.EMin()-p0, negative)
	}
	prec := int(mag.MinPrec())
	mantf.SetMantExp(mantf, prec) // now an integer value
	mant, acc := mantf.Int(nil)
	if acc != big.Exact {
		//lint:ignore barepanic mantf was just shifted to an integer value; inexact extraction is impossible by construction.
		panic("fp: inexact mantissa extraction")
	}
	e2 := exp - prec

	p := uint(f.MantBits())
	ebin := exp - 1
	qe := ebin - int(p)
	if minq := f.EMin() - int(p); qe < minq {
		qe = minq
	}

	var n uint64
	var guard, sticky bool
	s := e2 - qe
	switch {
	case s >= 0:
		mant.Lsh(mant, uint(s))
		if !mant.IsUint64() {
			return f.overflowBits(m, negative)
		}
		n = mant.Uint64()
	default:
		sh := uint(-s)
		rem := new(big.Int)
		q := new(big.Int).Rsh(mant, sh)
		rem.And(mant, new(big.Int).Sub(new(big.Int).Lsh(big.NewInt(1), sh), big.NewInt(1)))
		if !q.IsUint64() {
			return f.overflowBits(m, negative)
		}
		n = q.Uint64()
		half := new(big.Int).Lsh(big.NewInt(1), sh-1)
		switch rem.Cmp(half) {
		case 0:
			guard, sticky = true, false
		case 1:
			guard = true
			sticky = true
		default:
			guard = false
			sticky = rem.Sign() != 0
		}
	}
	n = roundUnits(m, n, guard, sticky, negative)
	return f.assembleBits(m, n, qe, negative)
}

// RoundDecoded is a convenience that rounds v into f under m and returns the
// decoded float64 value of the result.
func (f Format) RoundDecoded(v float64, m Mode) float64 {
	return f.Decode(f.FromFloat64(v, m))
}
