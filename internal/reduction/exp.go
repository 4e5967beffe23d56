package reduction

import (
	"math"

	"repro/internal/bigmath"
	"repro/internal/poly"
)

// expScheme implements exp, exp2 and exp10.
//
// Reduction: with c = ln2/64 (resp. 1/64, log10(2)/64), N = round(x/c) and
// r = x - N·c computed with a hi/lo split of c, so |r| ≤ c/2 ≈ 0.0054..0.0078.
// The polynomial approximates exp(r) (resp. 2^r, 10^r).
//
// Compensation: with N = 64q + j, result = 2^q · (y · 2^(j/64)) using the
// 64-entry correctly rounded table. Monotonically nondecreasing in y.
//
// Cutoffs (|E| = 8 family, round-to-odd formats up to 36 bits): inputs
// whose results certainly exceed 2^129 take the +MaxFloat64 overflow proxy;
// inputs whose results are certainly below 2^-157 take the
// SmallestNonzeroFloat64 underflow proxy. Both proxies round identically to
// the true result in every format and mode.
type expScheme struct {
	fn bigmath.Func
}

func (s expScheme) Func() bigmath.Func { return s.fn }

func (s expScheme) NumPolys() int { return 1 }

func (s expScheme) Structure(int) poly.Structure { return poly.Dense }

func (s expScheme) ReducedDomain() (lo, hi float64) {
	switch s.fn {
	case bigmath.Exp:
		c := ln2Double / 64
		return -c / 2 * 1.01, c / 2 * 1.01
	case bigmath.Exp2:
		return -1.0 / 128, 1.0 / 128
	default: // Exp10
		c := log102Double / 64
		return -c / 2 * 1.01, c / 2 * 1.01
	}
}

// cutoffs returns (hi, lo): x ≥ hi overflows every target, x ≤ lo
// underflows below minSubnormal/4 of every target.
func (s expScheme) cutoffs() (float64, float64) {
	switch s.fn {
	case bigmath.Exp:
		return 90.5, -109.5
	case bigmath.Exp2:
		return 130, -157
	default: // Exp10
		return 39.5, -47.5
	}
}

// expTinyCut: for |x| below it, exp(cx) sits strictly between 1 and the
// adjacent value of every target (mantissa ≤ 27 bits, |c·x| < 2^-29.6), so
// the polynomial path — whose double output would collapse to exactly 1 —
// cannot satisfy the round-to-odd interval; the special path returns the
// 1±2^-60 proxy instead. This mirrors the small-input fast paths of the
// RLibm/LLVM-libc implementations.
const expTinyCut = 1.0 / (1 << 31)

func (s expScheme) Reduce(x float64) (Ctx, bool) {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return Ctx{}, false
	}
	if x == 0 || math.Abs(x) < expTinyCut {
		return Ctx{}, false
	}
	hiCut, loCut := s.cutoffs()
	if x >= hiCut || x <= loCut {
		return Ctx{}, false
	}
	var n float64
	var r float64
	switch s.fn {
	case bigmath.Exp:
		n = math.Round(x * invLn2Times64)
		r = (x - n*ln2Over64Hi) - n*ln2Over64Lo
	case bigmath.Exp2:
		n = math.Round(x * 64)
		r = x - n/64 // exact
	default: // Exp10
		n = math.Round(x * invLg2Times64)
		r = (x - n*lg2Over64Hi) - n*lg2Over64Lo
	}
	ni := int(n)
	q, j := ni>>6, ni&63
	return Ctx{R: r, T: exp2J[j], E: q}, true
}

func (s expScheme) Compensate(ctx Ctx, y0, _ float64) float64 {
	return scale(y0*ctx.T, ctx.E)
}

// scale returns math.Ldexp(y, e). For normal-range e it multiplies by the
// bit-built 2^e: one multiplication, rounded to nearest even exactly like
// Ldexp's own final multiplication when the result leaves the normal range.
func scale(y float64, e int) float64 {
	if uint(e+1022) <= 2045 { // -1022 ≤ e ≤ 1023
		return y * math.Float64frombits(uint64(e+1023)<<52)
	}
	return math.Ldexp(y, e)
}

func (s expScheme) Special(x float64) float64 {
	hiCut, loCut := s.cutoffs()
	switch {
	case math.IsNaN(x):
		return math.NaN()
	case math.IsInf(x, 1):
		return math.Inf(1)
	case math.IsInf(x, -1):
		return 0
	case x == 0:
		return 1
	case math.Abs(x) < expTinyCut:
		// exp(cx) = 1 + cx + …: strictly between 1 and its neighbours in
		// every target; the doubles adjacent to 1 round identically to the
		// true value in every format with ≤ 50 mantissa bits.
		if x > 0 {
			return math.Nextafter(1, 2)
		}
		return math.Nextafter(1, 0)
	case x >= hiCut:
		return math.MaxFloat64
	case x <= loCut:
		return math.SmallestNonzeroFloat64
	}
	//lint:ignore barepanic Reduce classified the input as special; the case split above mirrors that classification exactly.
	panic("reduction: exp special on regular input")
}
