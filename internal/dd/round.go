package dd

import (
	"math"

	"repro/internal/fp"
)

// Envelope is the relative error RoundUnambiguous allows Eval's result.
// Eval's design bound is 2^-60 and its tested worst case is 2^-58
// (TestKernelAccuracy, TestEnvelopeMargin), so 2^-50 is 1024× the first
// and 256× the second. The margin is what lets a correctly rounded answer
// rest on this test: a kernel corner eight bits worse than any measured
// one still lies inside the envelope.
const Envelope = 0x1p-50

// RoundUnambiguous is the quick phase of a two-phase correctly rounded
// evaluation. It rounds v, an Eval result, into out under mode when every
// value within Envelope of v rounds to the same bits, and reports false
// otherwise: when the envelope straddles a rounding boundary, and for the
// results whose error Envelope does not bound (non-finite or zero Hi, and
// |Hi| ≤ 2^-960, where doubles lose the double-double structure). The test
// runs in fixed-width arithmetic through fp.FromSum.
//
// Eval's saturated proxies (±MaxFloat64 for results beyond double range)
// pass the guards, and are still answered right: every format has at most
// 10 exponent bits, so the proxy and the true value round alike, as an
// overflow.
func RoundUnambiguous(v DD, out fp.Format, mode fp.Mode) (uint64, bool) {
	if math.IsNaN(v.Hi) || math.IsInf(v.Hi, 0) || math.Abs(v.Hi) <= 0x1p-960 {
		return 0, false
	}
	eps := math.Abs(v.Hi) * Envelope
	a := out.FromSum(v.Hi, v.Lo-eps, mode)
	if b := out.FromSum(v.Hi, v.Lo+eps, mode); a != b {
		return 0, false
	}
	return a, true
}
