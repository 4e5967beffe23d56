package reduction

import (
	"math"

	"repro/internal/bigmath"
	"repro/internal/poly"
)

// ExpScheme implements exp, exp2 and exp10.
//
// Reduction: with c = ln2/64 (resp. 1/64, log10(2)/64), N = round(x/c) and
// r = x - N·c computed with a hi/lo split of c, so |r| ≤ c/2 ≈ 0.0054..0.0078.
// The polynomial approximates exp(r) (resp. 2^r, 10^r).
//
// Compensation: with N = 64q + j, result = 2^q · (y · 2^(j/64)) using the
// 64-entry correctly rounded table. Monotonically nondecreasing in y. The
// cutoffs keep q within [-158, 131] for every input Reduce accepts, so 2^q
// is a normal double built from its bits (Ctx.B) and the scaling is one
// multiplication, bit-identical to math.Ldexp (TestExpScaleIsNormal).
//
// Cutoffs (|E| = 8 family, round-to-odd formats up to 36 bits): inputs
// whose results certainly exceed 2^129 take the +MaxFloat64 overflow proxy;
// inputs whose results are certainly below 2^-157 take the
// SmallestNonzeroFloat64 underflow proxy. Both proxies round identically to
// the true result in every format and mode.
//
// The constructor resolves the per-function constants once: 1/c, the hi/lo
// split of c and the two cutoffs. exp2's split is (1/64, 0), and
// (x - n·(1/64)) - n·0 equals the exact x - n/64 bit for bit, sign of zero
// included: n·(1/64) = n/64 exactly, and subtracting ±0 from a nonzero
// difference changes nothing while x - x is +0 either way.
type ExpScheme struct {
	fn           bigmath.Func
	invC         float64 // 1/c: 64/ln2, 64 or 64·log2(10)
	cHi, cLo     float64 // c ≈ cHi + cLo, cHi short enough that n·cHi is exact
	hiCut, loCut float64 // x ≥ hiCut overflows every target, x ≤ loCut underflows below minSubnormal/4
}

// newExpScheme returns the scheme of exp, exp2 or exp10.
func newExpScheme(f bigmath.Func) ExpScheme {
	switch f {
	case bigmath.Exp:
		return ExpScheme{fn: f, invC: invLn2Times64, cHi: ln2Over64Hi, cLo: ln2Over64Lo, hiCut: 90.5, loCut: -109.5}
	case bigmath.Exp2:
		return ExpScheme{fn: f, invC: 64, cHi: 1.0 / 64, cLo: 0, hiCut: 130, loCut: -157}
	default: // Exp10
		return ExpScheme{fn: f, invC: invLg2Times64, cHi: lg2Over64Hi, cLo: lg2Over64Lo, hiCut: 39.5, loCut: -47.5}
	}
}

func (s ExpScheme) Func() bigmath.Func { return s.fn }

func (s ExpScheme) NumPolys() int { return 1 }

func (s ExpScheme) Structure(int) poly.Structure { return poly.Dense }

func (s ExpScheme) ReducedDomain() (lo, hi float64) {
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

// expTinyCut: for |x| below it, exp(cx) sits strictly between 1 and the
// adjacent value of every target (mantissa ≤ 27 bits, |c·x| < 2^-29.6), so
// the polynomial path — whose double output would collapse to exactly 1 —
// cannot satisfy the round-to-odd interval; the special path returns the
// 1±2^-60 proxy instead. This mirrors the small-input fast paths of the
// RLibm/LLVM-libc implementations.
const expTinyCut = 1.0 / (1 << 31)

func (s ExpScheme) Reduce(x float64) (Ctx, bool) {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return Ctx{}, false
	}
	if x == 0 || math.Abs(x) < expTinyCut {
		return Ctx{}, false
	}
	if x >= s.hiCut || x <= s.loCut {
		return Ctx{}, false
	}
	n := math.Round(x * s.invC)
	r := (x - n*s.cHi) - n*s.cLo // exact for exp2
	ni := int(n)
	q, j := ni>>6, ni&63
	return Ctx{R: r, A: exp2J[j], B: math.Float64frombits(uint64(q+1023) << 52)}, true
}

func (s ExpScheme) Compensate(ctx Ctx, y0, _ float64) float64 {
	return y0 * ctx.A * ctx.B
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

// Special may be arbitrarily slow: the batch kernel reaches it only for
// inputs Reduce rejected. The //evalhot:cold marker below records that
// audit, so the hot-loop walk stops here.
//
//evalhot:cold
func (s ExpScheme) Special(x float64) float64 {
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
	case x >= s.hiCut:
		return math.MaxFloat64
	case x <= s.loCut:
		return math.SmallestNonzeroFloat64
	}
	//lint:ignore barepanic Reduce classified the input as special; the case split above mirrors that classification exactly.
	panic("reduction: exp special on regular input")
}
