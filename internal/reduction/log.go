package reduction

import (
	"math"

	"repro/internal/bigmath"
	"repro/internal/poly"
)

// LogScheme implements ln, log2 and log10.
//
// Reduction: x = 2^e · m with m ∈ [1,2); j = ⌊(m-1)·128⌋ selects
// F = 1 + j/128; the polynomial input is r = (m-F)·(1/F) — the subtraction
// is exact by Sterbenz and the table holds correctly rounded reciprocals —
// giving r ∈ [0, 1/128]. The polynomial approximates log(1+r).
//
// Compensation: result = (e·log(2) + logF[j]) + y, with the first sum
// precomputed into Ctx.T using the same float64 operations the library
// performs. Strictly increasing in y.
//
// The constructor resolves log(2) and the log(F) table once. log2's
// multiplier is 1, and float64(e)·1 is exact, so e·1 + log2F[j] is the sum
// e + log2F[j] bit for bit.
type LogScheme struct {
	fn     bigmath.Func
	logOf2 float64                     // log(2) in the function's base
	logF   *[1 << logTableBits]float64 // log(1 + j/128) in the function's base
}

// newLogScheme returns the scheme of ln, log2 or log10.
func newLogScheme(f bigmath.Func) LogScheme {
	switch f {
	case bigmath.Log2:
		return LogScheme{fn: f, logOf2: 1, logF: &log2F}
	case bigmath.Log10:
		return LogScheme{fn: f, logOf2: log102Double, logF: &log10F}
	default: // Ln
		return LogScheme{fn: f, logOf2: ln2Double, logF: &lnF}
	}
}

func (s LogScheme) Func() bigmath.Func { return s.fn }

func (s LogScheme) NumPolys() int { return 1 }

func (s LogScheme) Structure(int) poly.Structure { return poly.Dense }

func (s LogScheme) ReducedDomain() (lo, hi float64) { return 0, 1.0 / 128 }

func (s LogScheme) Reduce(x float64) (Ctx, bool) {
	if math.IsNaN(x) || x <= 0 || math.IsInf(x, 1) || x == 1 {
		return Ctx{}, false
	}
	m, e := logSplit(x)
	j := int((m - 1) * 128) // floor; exact scaling by a power of two
	F := 1 + float64(j)/128
	r := (m - F) * recipF[j] // m-F exact (Sterbenz)
	return Ctx{R: r, T: float64(e)*s.logOf2 + s.logF[j]}, true
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

func (s LogScheme) Compensate(ctx Ctx, y0, _ float64) float64 {
	return ctx.T + y0
}

// Special may be arbitrarily slow: the batch kernel reaches it only for
// inputs Reduce rejected. The //evalhot:cold marker below records that
// audit, so the hot-loop walk stops here.
//
//evalhot:cold
func (s LogScheme) Special(x float64) float64 {
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
