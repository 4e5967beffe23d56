package fp

import "math"

// Rounder is the batch-friendly form of Format.FromFloat64: every
// format- and mode-derived constant (field widths, quantum floor, the
// canonical NaN/∞/zero/overflow bit patterns, the rounding increments) is
// computed once at construction, so the per-value Round call is pure
// integer arithmetic with no recomputation and no allocation. The
// serving-path kernels (internal/eval) round every batched result through
// one Rounder.
//
// Round has two routes. A double whose exponent puts it in the target's
// normal range, [2^EMin, 2^(EMax+1)), is rounded straight off its bit
// pattern: one add of a precomputed per-sign increment, one shift and one
// rebias subtraction turn the float64 bits into the target bits, and a
// rounding carry into the exponent falls out of the add. Everything else —
// NaN, ±∞, ±0, float64 subnormals and magnitudes that land in the target's
// subnormal range — takes the general quantize route that FromFloat64 runs.
//
// Contract: Round(v) == Format.FromFloat64(v, Mode) bit for bit, for every
// float64 v — pinned by TestRounderMatchesFromFloat64, and against the exact
// FromBig by TestRoundMatchesFromBig, TestRoundFastPathBoundaries and
// FuzzRound.
type Rounder struct {
	f Format
	m Mode

	// Fast path, for doubles whose biased exponent field lies in
	// [fieldLo, fieldLo+fieldSpan): the target's normal binades.
	fieldLo, fieldSpan uint64
	s                  uint      // dropped float64 mantissa bits, 52 - p ≥ 1
	low                uint64    // 2^s - 1, the dropped-bits mask
	inc                [2]uint64 // per-sign rounding increment, indexed by the sign bit
	even               uint64    // 1 under rn: the kept lsb joins the increment (ties to even)
	ro                 uint64    // 1 under ro: a nonzero dropped part sets the kept lsb
	rebias             uint64    // (1023 - bias) << p: float64 exponent field to target field
	tCap               uint64    // (2^|E| - 1) << p: the first overflowing magnitude pattern
	sgn, ovf           [2]uint64 // per-sign sign bit and overflow pattern

	p    uint // mantissa bits
	minq int  // subnormal quantum exponent, EMin - MantBits
	bias int

	nan, inf uint64 // canonical NaN and +∞
}

// NewRounder returns the rounder for repeated conversions into f under m.
func NewRounder(f Format, m Mode) Rounder {
	p := uint(f.MantBits())
	s := f64FracBits - p
	low := uint64(1)<<s - 1
	half := uint64(1) << (s - 1)
	r := Rounder{
		f:         f,
		m:         m,
		fieldLo:   uint64(f64Bias + f.EMin()),
		fieldSpan: uint64(f.EMax() - f.EMin() + 1),
		s:         s,
		low:       low,
		rebias:    uint64(f64Bias-f.Bias()) << p,
		tCap:      f.expMask(),
		sgn:       [2]uint64{0, f.signMask()},
		ovf:       [2]uint64{f.overflowBits(m, false), f.overflowBits(m, true)},
		p:         p,
		minq:      f.EMin() - f.MantBits(),
		bias:      f.Bias(),
		nan:       f.NaN(),
		inf:       f.Inf(false),
	}
	switch m {
	case RoundNearestEven:
		// half-1 carries strictly above the midpoint; the kept lsb tips
		// an exact midpoint up only when it is odd.
		r.inc = [2]uint64{half - 1, half - 1}
		r.even = 1
	case RoundNearestAway:
		r.inc = [2]uint64{half, half}
	case RoundTowardPositive:
		r.inc = [2]uint64{low, 0}
	case RoundTowardNegative:
		r.inc = [2]uint64{0, low}
	case RoundToOdd:
		r.ro = 1
	}
	return r
}

// Format returns the target format.
func (r *Rounder) Format() Format { return r.f }

// Mode returns the rounding mode.
func (r *Rounder) Mode() Mode { return r.m }

// Round rounds the exact real value v into the rounder's format under its
// mode and returns the resulting bit pattern. Normal-range magnitudes are
// rounded on the float64 bits (see Rounder); the rest go through
// roundSlow, which shares quantize with FromFloat64.
//
//evalhot:loop
func (r *Rounder) Round(v float64) uint64 {
	b := math.Float64bits(v)
	neg := b >> 63
	if (b>>f64FracBits)&f64ExpMask-r.fieldLo < r.fieldSpan {
		a := b &^ (1 << 63)
		t := ((a+r.inc[neg]+(a>>r.s)&r.even)>>r.s | r.ro&((a&r.low+r.low)>>r.s)) - r.rebias
		if t >= r.tCap {
			return r.ovf[neg]
		}
		return r.sgn[neg] | t
	}
	return r.roundSlow(b)
}

// roundSlow is Round outside the target's normal range: specials, zeros,
// float64 subnormals, and magnitudes that round into the target's
// subnormal range or up to its smallest normal.
//
//evalhot:loop
func (r *Rounder) roundSlow(b uint64) uint64 {
	neg := b >> 63
	switch {
	case (b>>f64FracBits)&f64ExpMask == f64ExpMask:
		if b&f64FracMask != 0 {
			return r.nan
		}
		return r.sgn[neg] | r.inf
	case b<<1 == 0:
		return r.sgn[neg]
	}
	mant, e2 := mantExp(b)
	n, qe := quantize(mant, e2, r.p, r.minq, r.m, neg != 0)
	return r.assemble(n, qe, neg)
}

// assemble is assembleBits with the format constants preloaded; neg is
// the sign bit.
//
//evalhot:loop
func (r *Rounder) assemble(n uint64, qe int, neg uint64) uint64 {
	sign := r.sgn[neg&1]
	if n == 0 {
		return sign
	}
	// Rounding carries at most one bit (see quantize).
	if n >= 1<<(r.p+1) {
		n >>= 1
		qe++
	}
	var bits uint64
	if n < 1<<r.p {
		bits = n
		if qe != r.minq {
			//lint:ignore barepanic arithmetic invariant of the quantization; proven by the format algebra, not reachable from inputs.
			panic("fp: subnormal magnitude at non-subnormal quantum")
		}
	} else {
		bits = uint64(qe+int(r.p)+r.bias)<<r.p + (n - 1<<r.p)
		if bits >= r.tCap {
			return r.ovf[neg&1]
		}
	}
	return sign | bits
}
