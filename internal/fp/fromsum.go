package fp

import (
	"math"
	"math/bits"
)

// FromSum rounds the exact real value hi + lo into the format under mode,
// where (hi, lo) is an unevaluated double-double sum with |lo| ≤ |hi|/4
// (the double-double invariant |lo| ≤ ulp(hi)/2 implies it). It is the
// allocation-free equivalent of FromBig on the exact sum, used by the Ziv
// fast paths of the comparator libraries. Degenerate inputs (zero or
// non-finite hi, zero lo) defer to FromFloat64 on hi.
//
// The sum is folded into one 64-bit mantissa: hi's mantissa with its
// leading bit at bit 62, plus or minus lo's bits at the same scale. Since
// |lo| ≤ |hi|/4, the sum's leading bit lands at bit 61, 62 or 63. The bits
// of lo below the mantissa only set a sticky low bit (after a one-unit
// borrow when lo is negative, which keeps the truncated sum a lower bound
// of the exact one). A format has at most 51 mantissa bits, so every
// rounding boundary lies above bit 0: quantize rounds the mantissa exactly
// as FromBig rounds the exact sum, and the binade, the subnormal clamp and
// the carry all come from the bits.
func (f Format) FromSum(hi, lo float64, m Mode) uint64 {
	if hi == 0 || math.IsNaN(hi) || math.IsInf(hi, 0) || lo == 0 {
		return f.FromFloat64(hi, m)
	}
	negative := math.Signbit(hi)
	ma, ea := mantExp(math.Float64bits(hi))
	shift := 63 - bits.Len64(ma)
	sum, e := ma<<uint(shift), ea-shift

	mb, eb := mantExp(math.Float64bits(lo))
	var part uint64
	sticky := false
	if d := eb - e; d >= 0 {
		part = mb << uint(d) // at most bit 60: |lo| ≤ |hi|/4
	} else {
		// Shifts of 64 or more yield 0: all of lo reads as sticky.
		part = mb >> uint(-d)
		sticky = part<<uint(-d) != mb
	}
	if math.Signbit(lo) == negative {
		sum += part
	} else {
		sum -= part
		if sticky {
			sum--
		}
	}
	if sticky {
		sum |= 1
	}
	p := uint(f.MantBits())
	n, qe := quantize(sum, e, p, f.EMin()-int(p), m, negative)
	return f.assembleBits(m, n, qe, negative)
}
