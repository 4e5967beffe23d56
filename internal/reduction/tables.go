// Package reduction implements range reduction, output compensation and
// inverse output compensation for the ten elementary functions of the
// paper, following the RLibm strategies (§2.2, §4 "We use range reduction
// and output compensation functions from our prior work"):
//
//	ln/log2/log10:  x = 2^e·F·(1+r), F = 1 + j/128 from the top 7 mantissa
//	                bits, r = (m-F)·(1/F) ∈ [0, ~1/128); one polynomial per
//	                function approximating log(1+r); output compensation
//	                adds e·log(2) and a 128-entry log(F) table.
//	exp/exp2/exp10: x = N·c + r with N = round(x/c), c = ln2/64, 1/64,
//	                log10(2)/64; one polynomial approximating exp(r);
//	                output compensation multiplies by 2^(j/64) (64-entry
//	                table) and scales by 2^q, N = 64q + j.
//	sinh/cosh:      |x| = k·(ln2/64) + r; with E± = 2^(±k/64) from tables,
//	                sinh x = ½(E⁺-E⁻)·cosh r + ½(E⁺+E⁻)·sinh r (and the
//	                dual for cosh): two polynomials, an even cosh-kernel
//	                and an odd sinh-kernel.
//	sinpi/cospi:    z = |x| mod 2 folded into w ∈ [0,½] with sign fixups,
//	                w = i/64 + r, i ∈ 0..32: sinπ(w) = sp[i]·cosπ(r) +
//	                cp[i]·sinπ(r), cosπ(w) = cp[i]·cosπ(r) - sp[i]·sinπ(r):
//	                two polynomials, an even cosπ-kernel and an odd
//	                sinπ-kernel.
//
// All reductions and compensations run in float64, exactly the code the
// generated library executes; the generator replays them bit-for-bit, so
// their rounding errors are absorbed into the constraint intervals.
//
// The schemes hard-code overflow/underflow cutoffs for the 8-exponent-bit
// format family of the paper (bfloat16, tensorfloat32, float32 and their
// round-to-odd extensions up to 36 bits).
package reduction

import (
	"math"
	"math/big"

	"repro/internal/bigmath"
)

// Table sizes.
const (
	logTableBits = 7  // F = 1 + j/128
	expTableN    = 64 // 2^(j/64)
	trigTableN   = 33 // sinπ(i/64), i = 0..32
)

// Correctly rounded tables, filled at init from the arbitrary-precision
// oracle. Their byte sizes are reported separately from polynomial
// coefficient storage, as in the paper.
var (
	recipF [1 << logTableBits]float64 // 1/(1+j/128)
	lnF    [1 << logTableBits]float64 // ln(1+j/128)
	log2F  [1 << logTableBits]float64 // log2(1+j/128)
	log10F [1 << logTableBits]float64 // log10(1+j/128)
	exp2J  [expTableN]float64         // 2^(j/64)
	exp2Jn [expTableN]float64         // 2^(-j/64)
	sinPiI [trigTableN]float64        // sinπ(i/64)
	cosPiI [trigTableN]float64        // cosπ(i/64)
)

// Reduction constants (double precision; hi/lo splits where the product
// with a large N must stay accurate).
var (
	ln2Over64Hi   float64 // ln2/64 rounded to 32 bits
	ln2Over64Lo   float64 // ln2/64 - hi
	invLn2Times64 float64 // 64/ln2
	lg2Over64Hi   float64 // log10(2)/64 rounded to 32 bits
	lg2Over64Lo   float64
	invLg2Times64 float64 // 64·log2(10)
	ln2Double     float64 // ln 2
	log102Double  float64 // log10 2
)

// round32 returns v rounded to 32 significand bits (so integer multiples
// up to 2^21 remain exact).
func round32(v float64) float64 {
	f, e := math.Frexp(v)
	return math.Ldexp(math.Round(f*(1<<32))/(1<<32), e)
}

func bigToDouble(f bigmath.Func, x float64) float64 {
	v, _ := bigmath.Eval(f, x, 64).Float64()
	return v
}

func init() {
	for j := 0; j < 1<<logTableBits; j++ {
		F := 1 + float64(j)/128
		recipF[j] = 1 / F // exact reciprocal rounding: 1/F correctly rounded by IEEE division
		if j == 0 {
			lnF[j], log2F[j], log10F[j] = 0, 0, 0
		} else {
			lnF[j] = bigToDouble(bigmath.Ln, F)
			log2F[j] = bigToDouble(bigmath.Log2, F)
			log10F[j] = bigToDouble(bigmath.Log10, F)
		}
	}
	for j := 0; j < expTableN; j++ {
		x := float64(j) / 64
		if j == 0 {
			exp2J[j], exp2Jn[j] = 1, 1
			continue
		}
		exp2J[j] = bigToDouble(bigmath.Exp2, x)
		exp2Jn[j] = bigToDouble(bigmath.Exp2, -x)
	}
	for i := 0; i < trigTableN; i++ {
		x := float64(i) / 64
		sinPiI[i] = bigToDouble(bigmath.SinPi, x)
		cosPiI[i] = bigToDouble(bigmath.CosPi, x)
	}
	sinPiI[0], cosPiI[0] = 0, 1
	sinPiI[32], cosPiI[32] = bigToDouble(bigmath.SinPi, 0.5), bigToDouble(bigmath.CosPi, 0.5)

	ln2Double, _ = bigmath.Ln2(64).Float64()
	ln2Over64Hi, ln2Over64Lo = hiLoSplit(bigmath.Ln2(128), 64)
	invLn2Times64 = 64 / ln2Double
	log102Double, _ = bigmath.Log10Of2(64).Float64()
	lg2Over64Hi, lg2Over64Lo = hiLoSplit(bigmath.Log10Of2(128), 64)
	invLg2Times64 = 64 / log102Double
	for f := range schemes {
		schemes[f] = newScheme(bigmath.Func(f))
	}
}

// hiLoSplit returns (hi, lo) with hi = c/div rounded to 32 bits and lo the
// double nearest to c/div - hi, so N·hi is exact for |N| ≤ 2^21 and
// (x - N·hi) - N·lo reproduces x - N·c/div to roughly 85 bits.
func hiLoSplit(c *big.Float, div int64) (hi, lo float64) {
	q := new(big.Float).SetPrec(128).Quo(c, new(big.Float).SetPrec(128).SetInt64(div))
	qf, _ := q.Float64()
	hi = round32(qf)
	rest := new(big.Float).SetPrec(128).Sub(q, new(big.Float).SetPrec(53).SetFloat64(hi))
	lo, _ = rest.Float64()
	return hi, lo
}

// TableBytes returns the range-reduction table storage of a function's
// scheme in bytes (excluded from the Table 1 polynomial-memory metric,
// as in the paper, but reported by the harness for completeness).
func TableBytes(f bigmath.Func) int {
	switch f {
	case bigmath.Ln, bigmath.Log2, bigmath.Log10:
		return 8 * 2 * (1 << logTableBits) // recipF + one log table
	case bigmath.Exp, bigmath.Exp2, bigmath.Exp10:
		return 8 * expTableN
	case bigmath.Sinh, bigmath.Cosh:
		return 8 * 2 * expTableN
	case bigmath.SinPi, bigmath.CosPi:
		return 8 * 2 * trigTableN
	}
	return 0
}
