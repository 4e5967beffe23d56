package gen

import (
	"sort"

	"repro/internal/fp"
)

// LevelFor returns the index of the level that serves queries for the
// format f: the smallest level whose width is ≥ f's. ok is false when f is
// wider than the largest level.
func (res *Result) LevelFor(f fp.Format) (int, bool) {
	for li, lvl := range res.Levels {
		if f.Bits() <= lvl.Bits() {
			return li, true
		}
	}
	return 0, false
}

// ServingLevel picks the level whose evaluation is *guaranteed* for a
// query (f, mode): a lower level's truncated evaluation is certified only
// for that level's exact format under round-to-nearest-even (its
// constraints are rn rounding intervals); every other format/mode
// combination relies on the round-to-odd theorem and must use the largest
// level's full evaluation. ok is false when f is wider than the largest
// level.
func (res *Result) ServingLevel(f fp.Format, mode fp.Mode) (int, bool) {
	last := len(res.Levels) - 1
	if f.Bits() > res.Levels[last].Bits() {
		return 0, false
	}
	if mode == fp.RoundNearestEven || res.ProgressiveRO {
		for li, lvl := range res.Levels[:last] {
			if res.ProgressiveRO {
				// RO-generated lower levels serve every format up to their
				// width under every mode.
				if f.Bits() <= lvl.Bits() {
					return li, true
				}
				continue
			}
			if lvl == f {
				return li, true
			}
		}
	}
	return last, true
}

// Eval evaluates the generated implementation: input x (which must be a
// value of the level li's format), evaluated with level li's progressive
// term counts, rounded into out under mode. This is the reference code
// path — EvalValue, then rounding. The compiled batch kernels of
// internal/eval are pinned bit-identical to this function; a semantic
// change here must be matched there (the exhaustive equivalence tests in
// internal/eval catch drift).
func (res *Result) Eval(x float64, li int, out fp.Format, mode fp.Mode) uint64 {
	return out.FromFloat64(res.EvalValue(x, li), mode)
}

// EvalValue is Eval without the final rounding: special-path check,
// special-input table, range reduction, structured Horner with the level's
// term count, output compensation. The benchmark harness also calls it to
// time the computation kernel itself.
func (res *Result) EvalValue(x float64, li int) float64 {
	scheme := res.Scheme()
	ctx, regular := scheme.Reduce(x)
	if !regular {
		return scheme.Special(x)
	}
	if sp := res.Specials[li]; len(sp) > 0 {
		i := sort.Search(len(sp), func(i int) bool { return sp[i].X >= x })
		//lint:ignore floateq special-table keys store the exact input bits; the lookup hit test is bit-exact by construction.
		if i < len(sp) && sp[i].X == x {
			return sp[i].Proxy
		}
	}
	var y0, y1 float64
	y0 = evalKernel(&res.Kernels[0], li, ctx.R)
	if len(res.Kernels) > 1 {
		y1 = evalKernel(&res.Kernels[1], li, ctx.R)
	}
	return scheme.Compensate(ctx, y0, y1)
}

func evalKernel(kp *KernelPoly, li int, r float64) float64 {
	p := &kp.Pieces[0]
	if len(kp.Pieces) > 1 {
		p = findPiece(kp.Pieces, r)
	}
	return kp.Structure.Eval(p.Coeffs, p.LevelTerms[li], r)
}

// findPiece locates the sub-domain containing r by binary search over the
// consecutive piece boundaries (pieces own [Lo, Hi), the last also owns its
// Hi) — the same rule the generator uses to assign constraints.
func findPiece(pieces []Piece, r float64) *Piece {
	lo, hi := 0, len(pieces)-1
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if r < pieces[mid].Hi {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return &pieces[lo]
}

// CoefficientBytes is the Table 1 storage metric: 8 bytes per stored
// coefficient across all kernels and pieces.
func (res *Result) CoefficientBytes() int {
	n := 0
	for _, k := range res.Kernels {
		for _, p := range k.Pieces {
			n += 8 * len(p.Coeffs)
		}
	}
	return n
}

// NumPieces returns the sub-domain counts per kernel.
func (res *Result) NumPieces() []int {
	out := make([]int, len(res.Kernels))
	for i, k := range res.Kernels {
		out[i] = len(k.Pieces)
	}
	return out
}

// MaxDegree returns the maximum polynomial degree per kernel at level li.
func (res *Result) MaxDegree(li int) []int {
	out := make([]int, len(res.Kernels))
	for i, k := range res.Kernels {
		d := 0
		for _, p := range k.Pieces {
			if dd := k.Structure.Degree(p.LevelTerms[li]); dd > d {
				d = dd
			}
		}
		out[i] = d
	}
	return out
}

// TermsAt returns the per-kernel term counts at level li (max over pieces).
func (res *Result) TermsAt(li int) []int {
	out := make([]int, len(res.Kernels))
	for i, k := range res.Kernels {
		t := 0
		for _, p := range k.Pieces {
			if p.LevelTerms[li] > t {
				t = p.LevelTerms[li]
			}
		}
		out[i] = t
	}
	return out
}

// NumSpecials returns the per-level count of special-case inputs.
func (res *Result) NumSpecials() []int {
	out := make([]int, len(res.Specials))
	for i, s := range res.Specials {
		out[i] = len(s)
	}
	return out
}

// AddSpecial patches one input at one level (used by verification repair).
func (res *Result) AddSpecial(li int, x, proxy float64) {
	sp := res.Specials[li]
	i := sort.Search(len(sp), func(i int) bool { return sp[i].X >= x })
	//lint:ignore floateq special-table keys store the exact input bits; the lookup hit test is bit-exact by construction.
	if i < len(sp) && sp[i].X == x {
		sp[i].Proxy = proxy
		return
	}
	sp = append(sp, SpecialInput{})
	copy(sp[i+1:], sp[i:])
	sp[i] = SpecialInput{X: x, Proxy: proxy}
	res.Specials[li] = sp
}
