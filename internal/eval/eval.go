// Package eval is the batched hot-path evaluation layer of the generated
// library: the serving-side counterpart of internal/gen's reference
// evaluator. Compile does every per-(function, format, mode) decision once
// — serving-level resolution, truncated term counts, piece boundaries and
// coefficient prefixes snapshotted into flat contiguous arrays, the
// range-reduction scheme devirtualized (reduction.Lowered), the rounding
// constants precomputed (fp.Rounder), and the special-input table rebuilt
// as an open-addressed bit-pattern hash — so Kernel.EvalBatch amortizes all
// of it over slices with zero allocations, zero interface calls and no
// binary search in the loop.
//
// Correctness contract: for every input x of the compiled level's format,
// EvalBatch produces exactly the bits gen.Result.Eval produces — the
// reference path stays the specification, the kernel is the optimization.
// The exhaustive and randomized equivalence tests in eval_test.go pin the
// contract; the evalhot analyzer of rlibm-lint pins the hot-loop
// restrictions statically.
package eval

import (
	"context"
	"errors"
	"fmt"
	"math"

	"repro/internal/bigmath"
	"repro/internal/fp"
	"repro/internal/gen"
	"repro/internal/obs"
	"repro/internal/reduction"
)

// ErrTooWide reports a requested output format wider than the largest
// generated level; matchable with errors.Is.
var ErrTooWide = errors.New("output format wider than the generated levels")

// flatPoly is one kernel polynomial flattened for the hot loop: the
// truncated coefficient prefixes of every piece concatenated into one
// contiguous array, piece upper bounds in a parallel slice, and the
// monomial structure lowered to two booleans.
type flatPoly struct {
	bounds []float64 // pieces[i] owns r < bounds[i]; the last piece owns the rest
	coeffs []float64 // concatenated truncated coefficient prefixes
	off    []int     // piece i's coefficients are coeffs[off[i]:off[i+1]]
	square bool      // stride-2 structure: Horner runs on r²
	odd    bool      // offset-1 structure: result multiplied by r
}

// eval evaluates the flattened polynomial at the reduced input r, exactly
// as poly.Structure.Eval evaluates the truncated prefix: same piece
// selection rule (gen's binary search over the piece bounds, so the
// 256-piece RLibm-All baselines stay logarithmic), same Horner order, term
// for term.
//
//evalhot:loop
func (f *flatPoly) eval(r float64) float64 {
	i, hi := 0, len(f.bounds)-1
	for i < hi {
		mid := int(uint(i+hi) >> 1)
		if r < f.bounds[mid] {
			hi = mid
		} else {
			i = mid + 1
		}
	}
	c := f.coeffs[f.off[i]:f.off[i+1]]
	u := r
	if f.square {
		u = r * r
	}
	var v float64
	if n := len(c); n > 0 {
		v = c[n-1]
		for j := n - 2; j >= 0; j-- {
			v = v*u + c[j]
		}
	}
	if f.odd {
		v = r * v
	}
	return v
}

// specialEmpty is the empty-slot sentinel of the special-input hash table:
// the bit pattern of +0, which can never key a special entry (every special
// input passed Reduce as a regular value, and ±0/NaN/±∞ never do).
const specialEmpty = 0

// specialTable is the branch-free replacement for gen's per-call
// sort.Search over the special-input list: an open-addressed, linearly
// probed hash table keyed on input bit patterns, sized to a power of two at
// most half full, so lookups terminate in a couple of data-dependent probes
// with no comparisons against NaN-hostile float keys.
type specialTable struct {
	mask uint64
	keys []uint64
	vals []float64
}

// specialHash mixes the input bit pattern (the 64-bit finalizer of
// MurmurHash3 — deterministic, seedless, and uniform enough for tables of a
// few dozen keys).
func specialHash(b uint64) uint64 {
	b ^= b >> 33
	b *= 0xff51afd7ed558ccd
	b ^= b >> 33
	b *= 0xc4ceb9fe1a85ec53
	b ^= b >> 33
	return b
}

// buildSpecials compiles one level's special-input list into a hash table.
func buildSpecials(sp []gen.SpecialInput) (specialTable, error) {
	size := 1
	for size < 2*len(sp) {
		size <<= 1
	}
	t := specialTable{
		mask: uint64(size - 1),
		keys: make([]uint64, size),
		vals: make([]float64, size),
	}
	for _, s := range sp {
		bits := math.Float64bits(s.X)
		if bits == specialEmpty || math.IsNaN(s.X) || math.IsInf(s.X, 0) {
			return specialTable{}, fmt.Errorf("eval: special-input key %v is not a regular input", s.X)
		}
		i := specialHash(bits) & t.mask
		for t.keys[i] != specialEmpty && t.keys[i] != bits {
			i = (i + 1) & t.mask
		}
		t.keys[i] = bits
		t.vals[i] = s.Proxy
	}
	return t, nil
}

// lookup returns the proxy for the input bit pattern, if present. At most
// half the slots are occupied, so the probe loop always terminates at an
// empty slot.
//
//evalhot:loop
func (t *specialTable) lookup(bits uint64) (float64, bool) {
	i := specialHash(bits) & t.mask
	for {
		k := t.keys[i]
		if k == bits {
			return t.vals[i], true
		}
		if k == specialEmpty {
			return 0, false
		}
		i = (i + 1) & t.mask
	}
}

// Kernel is one compiled (function, level, output format, rounding mode)
// evaluator. A Kernel is immutable after Compile and safe for concurrent
// EvalBatch calls; attach an observability span with Observe before sharing
// it across goroutines.
type Kernel struct {
	fn        bigmath.Func
	out       fp.Format
	mode      fp.Mode
	level     int
	truncated bool
	numPolys  int
	red       reduction.Lowered
	rnd       fp.Rounder
	polys     [2]flatPoly
	specials  specialTable
	sp        *obs.Span
}

// Compile builds the batch kernel serving (fn=res.Fn, out, mode): the level
// is res.ServingLevel(out, mode) — the truncated progressive prefix when
// the guarantee covers (out, mode), the largest level's full polynomial
// otherwise. Fails with ErrTooWide (wrapped) when out exceeds the generated
// ladder.
func Compile(res *gen.Result, out fp.Format, mode fp.Mode) (*Kernel, error) {
	if res == nil {
		return nil, errors.New("eval: nil result")
	}
	li, ok := res.ServingLevel(out, mode)
	if !ok {
		return nil, fmt.Errorf("eval: %v: %v exceeds largest level %v: %w",
			res.Fn, out, res.Levels[len(res.Levels)-1], ErrTooWide)
	}
	return CompileAt(res, li, out, mode)
}

// CompileAt builds the batch kernel evaluating level li's term counts and
// special table, rounding into out under mode. Compile (which resolves the
// certified level) is the normal entry point; CompileAt additionally lets
// benchmarks and experiments pin a level — e.g. forcing the largest level's
// full polynomial for a truncated-vs-full comparison on the same table.
// Inputs handed to EvalBatch must be values of level li's format (which
// every value of out is, whenever li came from ServingLevel).
func CompileAt(res *gen.Result, li int, out fp.Format, mode fp.Mode) (*Kernel, error) {
	if res == nil {
		return nil, errors.New("eval: nil result")
	}
	if li < 0 || li >= len(res.Levels) {
		return nil, fmt.Errorf("eval: level %d out of range [0,%d)", li, len(res.Levels))
	}
	if n := len(res.Kernels); n < 1 || n > 2 {
		return nil, fmt.Errorf("eval: %d kernel polynomials (want 1 or 2)", len(res.Kernels))
	}
	k := &Kernel{
		fn:        res.Fn,
		out:       out,
		mode:      mode,
		level:     li,
		truncated: li < len(res.Levels)-1,
		numPolys:  len(res.Kernels),
		red:       reduction.Lower(res.Fn),
		rnd:       fp.NewRounder(out, mode),
	}
	for pi := range res.Kernels {
		flat, err := flatten(&res.Kernels[pi], li)
		if err != nil {
			return nil, fmt.Errorf("eval: %v kernel %d: %w", res.Fn, pi, err)
		}
		k.polys[pi] = flat
	}
	st, err := buildSpecials(res.Specials[li])
	if err != nil {
		return nil, err
	}
	k.specials = st
	return k, nil
}

// flatten snapshots one kernel polynomial's pieces at level li.
func flatten(kp *gen.KernelPoly, li int) (flatPoly, error) {
	s := kp.Structure
	if s.Stride < 1 || s.Stride > 2 || s.Offset < 0 || s.Offset > 1 {
		return flatPoly{}, fmt.Errorf("unsupported structure %+v", s)
	}
	if len(kp.Pieces) == 0 {
		return flatPoly{}, errors.New("no pieces")
	}
	f := flatPoly{
		square: s.Stride == 2,
		odd:    s.Offset == 1,
		off:    make([]int, 1, len(kp.Pieces)+1),
	}
	for _, p := range kp.Pieces {
		if li >= len(p.LevelTerms) {
			return flatPoly{}, fmt.Errorf("piece has %d level term counts, level %d requested", len(p.LevelTerms), li)
		}
		terms := p.LevelTerms[li]
		if terms > len(p.Coeffs) {
			terms = len(p.Coeffs) // HornerTerms clamps the same way
		}
		f.coeffs = append(f.coeffs, p.Coeffs[:terms]...)
		f.off = append(f.off, len(f.coeffs))
		f.bounds = append(f.bounds, p.Hi)
	}
	return f, nil
}

// Func identifies the compiled elementary function.
func (k *Kernel) Func() bigmath.Func { return k.fn }

// Format returns the output format results are rounded into.
func (k *Kernel) Format() fp.Format { return k.out }

// Mode returns the rounding mode results are rounded under.
func (k *Kernel) Mode() fp.Mode { return k.mode }

// Level returns the progressive level the kernel evaluates.
func (k *Kernel) Level() int { return k.level }

// Truncated reports whether the kernel evaluates a truncated progressive
// prefix (a level below the largest) rather than the full polynomial.
func (k *Kernel) Truncated() bool { return k.truncated }

// Observe attaches an observability span: every subsequent EvalBatch
// records the eval.* counters onto it, once per batch. Call before sharing
// the kernel across goroutines (the field itself is unsynchronized; the
// span's own methods are concurrency-safe and nil-safe).
func (k *Kernel) Observe(sp *obs.Span) { k.sp = sp }

// EvalBatch evaluates fn over src, writing one output bit pattern per input
// into dst (which must be at least as long as src). Inputs must be values
// of the compiled level's format. The loop allocates nothing, calls no
// interface method and searches no table — the per-input work is range
// reduction, a hash probe, structured Horner over the truncated prefix,
// output compensation and precompiled rounding, fused per function.
//
// Bit contract: dst[i] == res.Eval(src[i], Level(), Format(), Mode()) for
// every i.
func (k *Kernel) EvalBatch(dst []uint64, src []float64) {
	if len(dst) < len(src) {
		panic("eval: dst shorter than src")
	}
	specials, polys := k.evalLoop(dst, src)
	sp := k.sp
	sp.Add(obs.CtrEvalBatches, 1)
	sp.Add(obs.CtrEvalInputs, int64(len(src)))
	sp.Add(obs.CtrEvalSpecialHits, specials)
	if k.truncated {
		sp.Add(obs.CtrEvalTruncated, polys)
	} else {
		sp.Add(obs.CtrEvalFull, polys)
	}
}

// Eval evaluates one input through the batch path (tests, spot checks; the
// batch entry point is the product).
func (k *Kernel) Eval(x float64) uint64 {
	var src [1]float64
	var dst [1]uint64
	src[0] = x
	k.evalLoop(dst[:], src[:])
	return dst[0]
}

// evalLoop is the batch hot loop. The evalhot analyzer of rlibm-lint
// enforces its restrictions statically: no allocating expressions, no
// interface method calls, no sort.Search, no big.Float. Counters are
// tallied into locals and recorded by the caller after the loop.
//
//evalhot:loop
func (k *Kernel) evalLoop(dst []uint64, src []float64) (specials, polys int64) {
	for i, x := range src {
		ctx, regular := k.red.Reduce(x)
		if !regular {
			dst[i] = k.rnd.Round(k.red.Special(x))
			specials++
			continue
		}
		if proxy, ok := k.specials.lookup(math.Float64bits(x)); ok {
			dst[i] = k.rnd.Round(proxy)
			specials++
			continue
		}
		y0 := k.polys[0].eval(ctx.R)
		var y1 float64
		if k.numPolys > 1 {
			y1 = k.polys[1].eval(ctx.R)
		}
		dst[i] = k.rnd.Round(k.red.Compensate(ctx, y0, y1))
		polys++
	}
	return specials, polys
}

// ctxChunk bounds how many inputs EvalBatchCtx evaluates between context
// checks: large enough that the per-chunk ctx.Err() load is amortized to
// nothing, small enough that a canceled request stops within tens of
// microseconds.
const ctxChunk = 4096

// EvalBatchCtx is EvalBatch with a cancellation point between chunks: the
// serving layer propagates per-request deadlines through it, so a request
// whose client went away (or whose deadline passed) stops mid-batch instead
// of burning the rest of the slice. Outputs written before cancellation are
// valid; the returned error is ctx.Err(). The chunk loop lives outside the
// //evalhot:loop region — the hot loop itself stays branch-free.
func (k *Kernel) EvalBatchCtx(ctx context.Context, dst []uint64, src []float64) error {
	if len(dst) < len(src) {
		panic("eval: dst shorter than src")
	}
	for len(src) > 0 {
		if err := ctx.Err(); err != nil {
			return err
		}
		n := len(src)
		if n > ctxChunk {
			n = ctxChunk
		}
		k.EvalBatch(dst[:n], src[:n])
		dst, src = dst[n:], src[n:]
	}
	return nil
}
