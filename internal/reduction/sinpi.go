package reduction

import (
	"math"
	"math/big"

	"repro/internal/bigmath"
	"repro/internal/poly"
)

// sinCosPiScheme implements sinpi and cospi with two polynomial kernels.
//
// Reduction (every step exact in float64): z = |x| mod 2 ∈ [0,2), folded
// into w ∈ [0,½] with sign fixups using sinπ(1+t) = -sinπ(t),
// sinπ(1-t) = sinπ(t), cosπ(1-t) = -cosπ(t); then w = i/64 + r with
// i = round(64w) ∈ 0..32 and r ∈ [-1/128, 1/128] (Sterbenz-exact), and
//
//	sinπ(w) = sp[i]·cosπ(r) + cp[i]·sinπ(r)
//	cosπ(w) = cp[i]·cosπ(r) - sp[i]·sinπ(r)
//
// with 33-entry correctly rounded tables sp, cp. The kernels are an even
// cosπ(r) polynomial (y0) and an odd sinπ(r) polynomial (y1).
//
// Inputs with 2x integral (all results 0, ±1, ±½-grid exact values, plus
// every |x| ≥ 2^52) take the special path.
type sinCosPiScheme struct {
	fn bigmath.Func
}

func (s sinCosPiScheme) Func() bigmath.Func { return s.fn }

func (s sinCosPiScheme) NumPolys() int { return 2 }

func (s sinCosPiScheme) Structure(p int) poly.Structure {
	if p == 0 {
		return poly.Even // cosπ kernel
	}
	return poly.Odd // sinπ kernel
}

func (s sinCosPiScheme) ReducedDomain() (lo, hi float64) {
	return -1.0 / 128, 1.0 / 128
}

// trigAnchorCut: when the reduced input r is this close to an extremum of
// the target function (cosπ at w = 0, sinπ at w = ½), the result is
// 1 - (πr)²/2 — strictly between 1 and its lower neighbour in every target,
// which the even-kernel polynomial cannot express in double (its constant
// term would have to serve every such input at once while the other
// constraints pin it). Those inputs take the special path with the
// adjacent-double proxy, like the tiny-input paths of exp/sinh/cosh.
const trigAnchorCut = 1.0 / (1 << 17)

// fold reduces x (finite, 2x non-integral) to (w, ssign, csign) with
// w ∈ [0, ½], sinπ(x) = ssign·sinπ(w) and cosπ(x) = csign·cosπ(w). Every
// step is exact in float64: for a = |x| ≥ 2, a - 2·⌊a/2⌋ ∈ [0,2) is a
// multiple of ulp(a), or 0 once ulp(a) ≥ 2.
func fold(x float64) (w, ssign, csign float64) {
	z := math.Abs(x)
	if z >= 2 {
		z -= 2 * math.Floor(z/2)
	}
	ssign, csign = 1, 1
	w = z
	if w > 1 {
		w = z - 1 // exact (Sterbenz)
		ssign, csign = -1, -1
	}
	if w > 0.5 {
		w = 1 - w // exact (Sterbenz)
		csign = -csign
	}
	if math.Signbit(x) {
		ssign = -ssign
	}
	return w, ssign, csign
}

func (s sinCosPiScheme) Reduce(x float64) (Ctx, bool) {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return Ctx{}, false
	}
	if 2*x == math.Trunc(2*x) {
		return Ctx{}, false // exact result
	}
	w, ssign, csign := fold(x)
	i := int(math.Round(w * 64)) // 0..32
	r := w - float64(i)/64       // exact (Sterbenz)
	if math.Abs(r) < trigAnchorCut &&
		((s.fn == bigmath.CosPi && i == 0) || (s.fn == bigmath.SinPi && i == 32)) {
		return Ctx{}, false // result hugs ±1: special path
	}
	ctx := Ctx{R: r}
	if s.fn == bigmath.SinPi {
		ctx.A, ctx.B, ctx.Sign = sinPiI[i], cosPiI[i], ssign
	} else {
		ctx.A, ctx.B, ctx.Sign = cosPiI[i], -sinPiI[i], csign
	}
	return ctx, true
}

func (s sinCosPiScheme) Compensate(ctx Ctx, y0, y1 float64) float64 {
	return ctx.Sign * (ctx.A*y0 + ctx.B*y1)
}

func (s sinCosPiScheme) Affine(ctx Ctx) (sign, a, b float64) {
	return ctx.Sign, ctx.A, ctx.B
}

func (s sinCosPiScheme) Kernels(r float64, prec uint) (*big.Float, *big.Float) {
	if r == 0 {
		return new(big.Float).SetPrec(prec).SetInt64(1), new(big.Float).SetPrec(prec)
	}
	return bigmath.Eval(bigmath.CosPi, r, prec), bigmath.Eval(bigmath.SinPi, r, prec)
}

func (s sinCosPiScheme) Special(x float64) float64 {
	switch {
	case math.IsNaN(x), math.IsInf(x, 0):
		return math.NaN()
	}
	if v, ok := bigmath.ExactValue(s.fn, x); ok {
		f, _ := v.Float64()
		if v.Signbit() {
			f = math.Copysign(f, -1)
		}
		return f
	}
	// Anchor region: |result| = 1 - (πr)²/2, just below 1 in magnitude.
	w, ssign, csign := fold(x)
	i := int(math.Round(w * 64))
	r := w - float64(i)/64
	if math.Abs(r) < trigAnchorCut {
		below := math.Nextafter(1, 0)
		if s.fn == bigmath.CosPi && i == 0 {
			return csign * below
		}
		if s.fn == bigmath.SinPi && i == 32 {
			return ssign * below
		}
	}
	//lint:ignore barepanic Reduce classified the input as special; the case split above mirrors that classification exactly.
	panic("reduction: sinpi/cospi special on regular input")
}
