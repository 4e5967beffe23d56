// Package oracle provides a fast correctly-rounding oracle for the ten
// elementary functions, layered on the arbitrary-precision bigmath package.
//
// RLIBM-Prog computes the oracle result of f(x) for every input of every
// representation of interest — hundreds of millions of MPFR calls in the
// paper's setting. The same enumeration in pure Go stays laptop-feasible on
// one core because a query is answered in two phases, as CR-LIBM does. Each
// step is exact, not approximate:
//
//   - shortcuts first: special values, number-theoretically exact results,
//     range clamps (exponential-family results beyond the target's finite
//     range round identically to a saturated proxy value) and anchors
//     (where |f(x) − a| is provably below half an output ulp of a
//     representable anchor a — e^x near 1, sinh x near x, cosh x and
//     cos πx near 1 — the rounded result is decided directly from the
//     direction of the residual);
//   - the quick phase: dd.Eval's double-double value, rounded by
//     dd.RoundUnambiguous when its error envelope lies inside one rounding
//     interval of the target;
//   - the Ziv loop in bigmath, only for the queries whose envelope
//     straddles a rounding boundary.
//
// # Concurrency
//
// An Oracle is safe for concurrent use by multiple goroutines: the sharded
// enumeration and verification pipelines issue Result queries from every
// worker against one shared instance. It holds no mutable state besides
// the Stats path counters, which are maintained with sync/atomic. Stats()
// taken while queries are in flight returns a consistent-enough snapshot
// for reporting; quiesce all workers first when an exact total is
// required.
package oracle

import (
	"math"
	"sync/atomic"

	"repro/internal/bigmath"
	"repro/internal/dd"
	"repro/internal/fault"
	"repro/internal/fp"
	"repro/internal/obs"
)

// Stats counts which path answered each query; the generation harness
// and the benchmark report them. Every Ziv evaluation follows a quick-phase
// miss, so Ambiguous always equals FullEvals.
type Stats struct {
	Specials  uint64 // NaN/Inf/zero/domain-error semantics
	Exacts    uint64 // number-theoretically exact results
	Clamps    uint64 // overflow/underflow range clamps
	Anchors   uint64 // anchor shortcuts (result adjacent to a known value)
	Shared    uint64 // quick-phase (double-double) answers
	FullEvals uint64 // full Ziv evaluations
	Ambiguous uint64 // quick-phase misses sent to the Ziv loop
}

// Total returns the total number of queries answered.
func (s Stats) Total() uint64 {
	return s.Specials + s.Exacts + s.Clamps + s.Anchors + s.Shared + s.FullEvals
}

// Sub returns the counter-wise difference s − t. Taking two snapshots
// around a phase and subtracting yields that phase's query profile; the CLI
// uses it to attribute oracle work to the function being generated.
func (s Stats) Sub(t Stats) Stats {
	return Stats{
		Specials:  s.Specials - t.Specials,
		Exacts:    s.Exacts - t.Exacts,
		Clamps:    s.Clamps - t.Clamps,
		Anchors:   s.Anchors - t.Anchors,
		Shared:    s.Shared - t.Shared,
		FullEvals: s.FullEvals - t.FullEvals,
		Ambiguous: s.Ambiguous - t.Ambiguous,
	}
}

// RecordTo writes the snapshot onto sp under the oracle.* counter taxonomy:
// queries (total answered), quick (quick-phase answers), ziv_escalations
// (quick-phase misses), full_evals, and shortcuts (specials + exacts +
// clamps + anchors). Nil-safe like every obs write.
func (s Stats) RecordTo(sp *obs.Span) {
	sp.Add(obs.CtrOracleQueries, int64(s.Total()))
	sp.Add(obs.CtrOracleQuick, int64(s.Shared))
	sp.Add(obs.CtrOracleZivEscalations, int64(s.Ambiguous))
	sp.Add(obs.CtrOracleFullEvals, int64(s.FullEvals))
	sp.Add(obs.CtrOracleShortcuts, int64(s.Specials+s.Exacts+s.Clamps+s.Anchors))
}

// counters is the internal race-free representation of Stats.
type counters struct {
	specials  atomic.Uint64
	exacts    atomic.Uint64
	clamps    atomic.Uint64
	anchors   atomic.Uint64
	shared    atomic.Uint64
	fullEvals atomic.Uint64
}

// Oracle answers correctly-rounded-result queries for one elementary
// function. It is safe for concurrent use; see the package comment for the
// concurrency contract.
type Oracle struct {
	fn     bigmath.Func
	stats  counters
	faults *fault.Plan
}

// New returns an oracle for fn.
func New(fn bigmath.Func) *Oracle { return &Oracle{fn: fn} }

// Func returns the function this oracle answers for.
func (o *Oracle) Func() bigmath.Func { return o.fn }

// SetFaults installs a fault-injection plan probed on every Result query
// (site oracle.ziv simulates Ziv-loop precision exhaustion). A nil plan —
// the default — disables injection. Set before sharing the oracle with
// worker goroutines.
func (o *Oracle) SetFaults(p *fault.Plan) { o.faults = p }

// Stats returns a snapshot of the path counters.
func (o *Oracle) Stats() Stats {
	fullEvals := o.stats.fullEvals.Load()
	return Stats{
		Specials:  o.stats.specials.Load(),
		Exacts:    o.stats.exacts.Load(),
		Clamps:    o.stats.clamps.Load(),
		Anchors:   o.stats.anchors.Load(),
		Shared:    o.stats.shared.Load(),
		FullEvals: fullEvals,
		Ambiguous: fullEvals,
	}
}

// Result returns the bits of fn(x) correctly rounded into out under mode.
// An unanswerable query — the Ziv loop exhausting its precision budget,
// real or injected — panics with a typed *fault.Error; the worker pool
// recovers it and reports it with job context.
func (o *Oracle) Result(x float64, out fp.Format, mode fp.Mode) uint64 {
	if o.faults.Should(fault.SiteOracleZiv) {
		panic(fault.New(fault.CodeOracleExhausted, "enumerate", "ziv",
			fault.Injected(fault.SiteOracleZiv)).WithFunc(o.fn.String()))
	}
	if bits, ok := bigmath.SpecialBits(o.fn, x, out); ok {
		o.stats.specials.Add(1)
		return bits
	}
	if v, ok := bigmath.ExactValue(o.fn, x); ok {
		o.stats.exacts.Add(1)
		return out.FromBig(v, mode)
	}
	if bits, ok := o.rangeClamp(x, out, mode); ok {
		o.stats.clamps.Add(1)
		return bits
	}
	if bits, ok := o.anchorShortcut(x, out, mode); ok {
		o.stats.anchors.Add(1)
		return bits
	}
	if bits, ok := dd.RoundUnambiguous(dd.Eval(o.fn, x), out, mode); ok {
		o.stats.shared.Add(1)
		return bits
	}
	o.stats.fullEvals.Add(1)
	return out.FromBig(bigmath.EvalUnambiguous(o.fn, x, out, mode), mode)
}

// rangeClamp answers exponential-family queries whose result magnitude is
// certainly beyond the finite range of out (or strictly inside the
// underflow gap), using saturated proxies that round identically in every
// mode.
func (o *Oracle) rangeClamp(x float64, out fp.Format, mode fp.Mode) (uint64, bool) {
	var t float64 // approximate log2 |result|
	switch o.fn {
	case bigmath.Exp:
		t = x * math.Log2E
	case bigmath.Exp2:
		t = x
	case bigmath.Exp10:
		t = x * math.Log2(10)
	case bigmath.Sinh, bigmath.Cosh:
		t = math.Abs(x)*math.Log2E - 1
		if math.Abs(x) < 4 {
			return 0, false
		}
	default:
		return 0, false
	}
	over := float64(out.EMax() + 2)
	under := float64(out.EMin() - out.MantBits() - 2)
	switch {
	case t > over:
		proxy := math.MaxFloat64
		if o.fn == bigmath.Sinh && x < 0 {
			proxy = -proxy
		}
		return out.FromFloat64(proxy, mode), true
	case t < under && o.fn != bigmath.Sinh && o.fn != bigmath.Cosh:
		// 0 < result < minSubnormal/4: a positive sticky-only quantity.
		return out.FromFloat64(math.SmallestNonzeroFloat64, mode), true
	}
	return 0, false
}

// anchorShortcut answers queries where f(x) = a + δ with a representable in
// out and 0 < |δ| < half the distance to a's neighbour, so the rounded
// result is a or the adjacent value depending only on mode and parity.
func (o *Oracle) anchorShortcut(x float64, out fp.Format, mode fp.Mode) (uint64, bool) {
	p := out.MantBits()
	switch o.fn {
	case bigmath.Exp, bigmath.Exp2, bigmath.Exp10:
		// |e^(cx) − 1| ≤ 2.31|x|·1.01 < half ulp around 1 when
		// |x| ≤ 2^-(p+4). x ≠ 0 here (exact case).
		if math.Abs(x) <= math.Ldexp(1, -(p+4)) {
			return justAside(out, 1, x > 0, mode), true
		}
	case bigmath.Sinh:
		// sinh x − x = x³/6 (+h.o.t.): below half ulp(x) when
		// |x| ≤ 2^-((p+6)/2). The anchor x must itself be representable.
		if math.Abs(x) <= math.Ldexp(1, -(p+6)/2-1) && out.Contains(x) {
			return justAside(out, x, x > 0, mode), true
		}
	case bigmath.Cosh:
		// cosh x − 1 = x²/2 (+h.o.t.).
		if math.Abs(x) <= math.Ldexp(1, -(p+6)/2-1) {
			return justAside(out, 1, true, mode), true
		}
	case bigmath.CosPi:
		// 0 < 1 − cos πx ≤ (πx)²/2 < 5x²; with π² folded into two more
		// bits of the cosh threshold it stays below 2^-(p+8), far inside
		// half the gap below 1. x ≠ 0 here (exact case).
		if math.Abs(x) <= math.Ldexp(1, -(p+6)/2-3) {
			return justAside(out, 1, false, mode), true
		}
	}
	return 0, false
}

// justAside returns the rounding of anchor+δ (positiveDelta) or anchor−δ,
// for an anchor exactly representable in out and 0 < δ < half the gap to
// the adjacent value in that direction.
func justAside(out fp.Format, anchor float64, positiveDelta bool, mode fp.Mode) uint64 {
	a := out.FromFloat64(anchor, fp.RoundTowardZero)
	var lo, hi uint64
	if positiveDelta {
		lo, hi = a, out.NextUp(a)
	} else {
		lo, hi = out.NextDown(a), a
	}
	switch mode {
	case fp.RoundNearestEven, fp.RoundNearestAway:
		return a
	case fp.RoundTowardPositive:
		return hi
	case fp.RoundTowardNegative:
		return lo
	case fp.RoundTowardZero:
		if anchor > 0 {
			return lo
		}
		return hi
	case fp.RoundToOdd:
		if out.OddMantissa(lo) {
			return lo
		}
		return hi
	}
	//lint:ignore barepanic exhaustive Mode switch; a new rounding mode is a compile-time change.
	panic("oracle: bad mode")
}
