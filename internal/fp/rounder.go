package fp

import "math"

// Rounder is the batch-friendly form of Format.FromFloat64: every
// format- and mode-derived constant (field widths, quantum floor, the
// canonical NaN/∞/zero/overflow bit patterns) is computed once at
// construction, so the per-value Round call is pure integer and float
// arithmetic with no recomputation and no allocation. The serving-path
// kernels (internal/eval) round every batched result through one Rounder.
//
// Contract: Round(v) == Format.FromFloat64(v, Mode) bit for bit, for every
// float64 v — pinned by TestRounderMatchesFromFloat64.
type Rounder struct {
	f Format
	m Mode

	p    uint // mantissa bits
	minq int  // subnormal quantum exponent, EMin - MantBits
	bias int
	// Exponent field value that overflows to ∞/maxFinite: 2^|E| - 1.
	expCap int

	nan              uint64
	infPos, infNeg   uint64
	zeroPos, zeroNeg uint64
	sign             uint64
	ovfPos, ovfNeg   uint64 // overflowBits per sign, mode baked in
}

// NewRounder returns the rounder for repeated conversions into f under m.
func NewRounder(f Format, m Mode) Rounder {
	return Rounder{
		f:       f,
		m:       m,
		p:       uint(f.MantBits()),
		minq:    f.EMin() - f.MantBits(),
		bias:    f.Bias(),
		expCap:  (1 << uint(f.expBits)) - 1,
		nan:     f.NaN(),
		infPos:  f.Inf(false),
		infNeg:  f.Inf(true),
		zeroPos: f.Zero(false),
		zeroNeg: f.Zero(true),
		sign:    f.signMask(),
		ovfPos:  f.overflowBits(m, false),
		ovfNeg:  f.overflowBits(m, true),
	}
}

// Format returns the target format.
func (r *Rounder) Format() Format { return r.f }

// Mode returns the rounding mode.
func (r *Rounder) Mode() Mode { return r.m }

// overflow returns the precomputed overflow pattern for the sign.
func (r *Rounder) overflow(negative bool) uint64 {
	if negative {
		return r.ovfNeg
	}
	return r.ovfPos
}

// Round rounds the exact real value v into the rounder's format under its
// mode and returns the resulting bit pattern. It is FromFloat64 with the
// derived constants hoisted out of the call and the special values read off
// the exponent field; both share quantize, so they stay bit-identical.
//
//evalhot:loop
func (r *Rounder) Round(v float64) uint64 {
	b := math.Float64bits(v)
	negative := b>>63 != 0
	switch {
	case (b>>f64FracBits)&f64ExpMask == f64ExpMask:
		if b&f64FracMask != 0 {
			return r.nan
		}
		if negative {
			return r.infNeg
		}
		return r.infPos
	case b<<1 == 0:
		if negative {
			return r.zeroNeg
		}
		return r.zeroPos
	}
	mant, e2 := mantExp(b)
	n, qe := quantize(mant, e2, r.p, r.minq, r.m, negative)
	return r.assemble(n, qe, negative)
}

// assemble is assembleBits with the format constants preloaded.
//
//evalhot:loop
func (r *Rounder) assemble(n uint64, qe int, negative bool) uint64 {
	sign := uint64(0)
	if negative {
		sign = r.sign
	}
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
		field := qe + int(r.p) + r.bias
		if field >= r.expCap {
			return r.overflow(negative)
		}
		bits = uint64(field)<<r.p + (n - 1<<r.p)
	}
	return sign | bits
}
