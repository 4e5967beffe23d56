package reduction

import (
	"math"
	"math/big"

	"repro/internal/bigmath"
	"repro/internal/poly"
)

// Ctx carries the per-input reduction state from Reduce to Compensate. Its
// interpretation is scheme-specific; it is a plain value so the hot paths
// allocate nothing.
type Ctx struct {
	// R is the reduced polynomial input.
	R float64
	// A and B are the affine kernel multipliers of two-polynomial schemes.
	A, B float64
	// T is the additive term (log family) or the 2^(j/64) factor
	// (exponential family).
	T float64
	// E is the binary scaling exponent q of the exponential family.
	E int
	// Sign is the final sign multiplier of two-polynomial schemes.
	Sign float64
}

// Scheme is the range-reduction/output-compensation strategy of one
// elementary function. Reduce and Compensate are the production code: the
// generated library executes them verbatim, and the generator replays them
// bit-for-bit when building constraints.
type Scheme interface {
	// Func identifies the elementary function.
	Func() bigmath.Func
	// NumPolys is 1, or 2 for the sinh/cosh and sinpi/cospi families.
	NumPolys() int
	// Structure returns the monomial layout of polynomial p.
	Structure(p int) poly.Structure
	// ReducedDomain bounds the reduced inputs produced by Reduce.
	ReducedDomain() (lo, hi float64)
	// Reduce maps an input to its reduction state, or reports false when
	// the input must take the special path.
	Reduce(x float64) (Ctx, bool)
	// Compensate computes the final double result from the polynomial
	// outputs (y1 is ignored by single-polynomial schemes). For
	// single-polynomial schemes Compensate is monotonically nondecreasing
	// in y0, which is what makes the inverse output compensation a binary
	// search.
	Compensate(ctx Ctx, y0, y1 float64) float64
	// Special returns the result for special-path inputs as a double whose
	// rounding into any supported format under any mode is the correct
	// result (±Inf, NaN, signed zeros, exact values, and saturated
	// overflow/underflow proxies).
	Special(x float64) float64
}

// TwoPoly is implemented by the schemes with two polynomial kernels. The
// generator uses the exact kernel values and the affine decomposition
// result = sign·(a·y0 + b·y1) to split output intervals into per-kernel
// boxes.
type TwoPoly interface {
	Scheme
	// Kernels returns high-precision kernel values (y0, y1) at the reduced
	// input r.
	Kernels(r float64, prec uint) (*big.Float, *big.Float)
	// Affine returns the multipliers of the affine output compensation.
	Affine(ctx Ctx) (sign, a, b float64)
}

// ForFunc returns the scheme implementing f: a LogScheme, ExpScheme,
// SinhCoshScheme or SinCosPiScheme value. The concrete types are exported so
// the batch kernel (internal/eval) can call the same method bodies the
// generator replays, directly instead of through the interface.
func ForFunc(f bigmath.Func) Scheme {
	switch f {
	case bigmath.Ln, bigmath.Log2, bigmath.Log10:
		return newLogScheme(f)
	case bigmath.Exp, bigmath.Exp2, bigmath.Exp10:
		return newExpScheme(f)
	case bigmath.Sinh, bigmath.Cosh:
		return SinhCoshScheme{fn: f}
	case bigmath.SinPi, bigmath.CosPi:
		return SinCosPiScheme{fn: f}
	}
	//lint:ignore barepanic exhaustive Func switch; a new function is a compile-time change.
	panic("reduction: unknown function")
}

// saturate returns the overflow proxy with the sign of x.
func saturate(x float64) float64 {
	return math.Copysign(math.MaxFloat64, x)
}
