package reduction

import (
	"math"
	"math/big"

	"repro/internal/bigmath"
	"repro/internal/poly"
)

// SinhCoshScheme implements sinh and cosh with two polynomial kernels.
//
// Reduction: a = |x| = N·(ln2/64) + r as in ExpScheme, and with
// E± = 2^(±N/64) assembled from the tables,
//
//	sinh a = ½(E⁺-E⁻)·cosh r + ½(E⁺+E⁻)·sinh r
//	cosh a = ½(E⁺+E⁻)·cosh r + ½(E⁺-E⁻)·sinh r
//
// so both functions share an even cosh-kernel polynomial (y0) and an odd
// sinh-kernel polynomial (y1); sinh restores the sign of x at the end.
// This is the paper's "range reduction requires approximations of two
// functions" structure for sinh/cosh (Table 1 lists two polynomials).
type SinhCoshScheme struct {
	fn bigmath.Func
}

func (s SinhCoshScheme) Func() bigmath.Func { return s.fn }

func (s SinhCoshScheme) NumPolys() int { return 2 }

func (s SinhCoshScheme) Structure(p int) poly.Structure {
	if p == 0 {
		return poly.Even // cosh kernel
	}
	return poly.Odd // sinh kernel
}

func (s SinhCoshScheme) ReducedDomain() (lo, hi float64) {
	c := ln2Double / 64
	return -c / 2 * 1.01, c / 2 * 1.01
}

// overflowCut: sinh/cosh ≈ e^|x|/2 > 2^129 for |x| ≥ 91.
const sinhOverflowCut = 91.0

// sinhTinyCut: below it, sinh x = x·(1 + x²/6 + …) and cosh x = 1 + x²/2
// sit strictly between a representable anchor and its neighbour in every
// target (x²/2 < 2^-37 ≪ 2^-29); the polynomial path cannot express that
// in double, so the special path answers with nextafter-style proxies.
const sinhTinyCut = 1.0 / (1 << 18)

func (s SinhCoshScheme) Reduce(x float64) (Ctx, bool) {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return Ctx{}, false
	}
	a := math.Abs(x)
	if a < sinhTinyCut {
		return Ctx{}, false // tiny inputs (and sinh's ±0) take the special path
	}
	if a >= sinhOverflowCut {
		return Ctx{}, false
	}
	n := math.Round(a * invLn2Times64)
	r := (a - n*ln2Over64Hi) - n*ln2Over64Lo
	ni := int(n)
	q, j := ni>>6, ni&63
	ep := scale(exp2J[j], q)
	en := scale(exp2Jn[j], -q)
	diff, sum := 0.5*(ep-en), 0.5*(ep+en)
	ctx := Ctx{R: r, Sign: 1}
	if s.fn == bigmath.Sinh {
		ctx.A, ctx.B = diff, sum
		ctx.Sign = math.Copysign(1, x)
	} else {
		ctx.A, ctx.B = sum, diff
	}
	return ctx, true
}

func (s SinhCoshScheme) Compensate(ctx Ctx, y0, y1 float64) float64 {
	return ctx.Sign * (ctx.A*y0 + ctx.B*y1)
}

func (s SinhCoshScheme) Affine(ctx Ctx) (sign, a, b float64) {
	return ctx.Sign, ctx.A, ctx.B
}

func (s SinhCoshScheme) Kernels(r float64, prec uint) (*big.Float, *big.Float) {
	if r == 0 {
		return new(big.Float).SetPrec(prec).SetInt64(1), new(big.Float).SetPrec(prec)
	}
	return bigmath.Eval(bigmath.Cosh, r, prec), bigmath.Eval(bigmath.Sinh, r, prec)
}

// Special may be arbitrarily slow: the batch kernel reaches it only for
// inputs Reduce rejected. The //evalhot:cold marker below records that
// audit, so the hot-loop walk stops here.
//
//evalhot:cold
func (s SinhCoshScheme) Special(x float64) float64 {
	switch {
	case math.IsNaN(x):
		return math.NaN()
	case math.IsInf(x, 0):
		if s.fn == bigmath.Cosh {
			return math.Inf(1)
		}
		return x
	case x == 0:
		if s.fn == bigmath.Cosh {
			return 1
		}
		return x // ±0
	case math.Abs(x) < sinhTinyCut:
		if s.fn == bigmath.Cosh {
			return math.Nextafter(1, 2) // cosh x = 1 + x²/2: just above 1
		}
		// sinh x = x + x³/6: just beyond x, away from zero.
		return math.Nextafter(x, math.Inf(1)*math.Copysign(1, x))
	case math.Abs(x) >= sinhOverflowCut:
		if s.fn == bigmath.Cosh {
			return math.MaxFloat64
		}
		return saturate(x)
	}
	//lint:ignore barepanic Reduce classified the input as special; the case split above mirrors that classification exactly.
	panic("reduction: sinh/cosh special on regular input")
}
