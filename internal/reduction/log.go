package reduction

import (
	"math"

	"repro/internal/bigmath"
	"repro/internal/poly"
)

// logScheme implements ln, log2 and log10.
//
// Reduction: x = 2^e · m with m ∈ [1,2); j = ⌊(m-1)·128⌋ selects
// F = 1 + j/128; the polynomial input is r = (m-F)·(1/F) — the subtraction
// is exact by Sterbenz and the table holds correctly rounded reciprocals —
// giving r ∈ [0, 1/128]. The polynomial approximates log(1+r).
//
// Compensation: result = (e·log(2) + logF[j]) + y, with the first sum
// precomputed into Ctx.T using the same float64 operations the library
// performs. Strictly increasing in y.
type logScheme struct {
	fn bigmath.Func
}

func (s logScheme) Func() bigmath.Func { return s.fn }

func (s logScheme) NumPolys() int { return 1 }

func (s logScheme) Structure(int) poly.Structure { return poly.Dense }

func (s logScheme) ReducedDomain() (lo, hi float64) { return 0, 1.0 / 128 }

func (s logScheme) Reduce(x float64) (Ctx, bool) {
	if math.IsNaN(x) || x <= 0 || math.IsInf(x, 1) || x == 1 {
		return Ctx{}, false
	}
	m, e := logSplit(x)
	j := int((m - 1) * 128) // floor; exact scaling by a power of two
	F := 1 + float64(j)/128
	r := (m - F) * recipF[j] // m-F exact (Sterbenz)
	var t float64
	switch s.fn {
	case bigmath.Ln:
		t = float64(e)*ln2Double + lnF[j]
	case bigmath.Log2:
		t = float64(e) + log2F[j]
	case bigmath.Log10:
		t = float64(e)*log102Double + log10F[j]
	}
	return Ctx{R: r, T: t}, true
}

// logSplit returns m ∈ [1,2) and e with x = m·2^e, for finite x > 0, from
// the bits of x. Only subnormal x, which no F(n,8) produces, takes
// math.Frexp.
func logSplit(x float64) (m float64, e int) {
	b := math.Float64bits(x)
	field := int(b >> 52)
	if field == 0 {
		frac, exp := math.Frexp(x) // x = frac·2^exp, frac ∈ [0.5,1)
		return 2 * frac, exp - 1
	}
	return math.Float64frombits(b&(1<<52-1) | 1023<<52), field - 1023
}

func (s logScheme) Compensate(ctx Ctx, y0, _ float64) float64 {
	return ctx.T + y0
}

func (s logScheme) Special(x float64) float64 {
	switch {
	case math.IsNaN(x):
		return math.NaN()
	case x == 0:
		return math.Inf(-1)
	case x < 0:
		return math.NaN()
	case math.IsInf(x, 1):
		return math.Inf(1)
	case x == 1:
		return 0
	}
	//lint:ignore barepanic Reduce classified the input as special; the case split above mirrors that classification exactly.
	panic("reduction: log special on regular input")
}
