package reduction

import "repro/internal/bigmath"

// loweredKind tags the concrete scheme family inside a Lowered.
type loweredKind uint8

const (
	loweredLog loweredKind = iota
	loweredExp
	loweredSinhCosh
	loweredSinCosPi
)

// Lowered is a range-reduction scheme behind a small tag switch over the
// four concrete scheme types. It is kept for one caller alone: the layer
// replay of the benchmark's eval-lib workload (bench/evallib.go), which
// times Reduce, Compensate and Special as separate passes. The serving
// kernel (internal/eval) calls the concrete schemes directly. Lowered is
// deleted together with that replay (ROADMAP item 7). Its schemes are built
// exactly as ForFunc builds them, so Lowered and Scheme are bit-identical by
// construction (pinned by TestLoweredMatchesScheme).
type Lowered struct {
	kind     loweredKind
	numPolys int
	log      LogScheme
	exp      ExpScheme
	sinh     SinhCoshScheme
	trig     SinCosPiScheme
}

// Lower returns the tag-switched scheme of f.
func Lower(f bigmath.Func) Lowered {
	switch f {
	case bigmath.Ln, bigmath.Log2, bigmath.Log10:
		return Lowered{kind: loweredLog, numPolys: 1, log: newLogScheme(f)}
	case bigmath.Exp, bigmath.Exp2, bigmath.Exp10:
		return Lowered{kind: loweredExp, numPolys: 1, exp: newExpScheme(f)}
	case bigmath.Sinh, bigmath.Cosh:
		return Lowered{kind: loweredSinhCosh, numPolys: 2, sinh: SinhCoshScheme{fn: f}}
	case bigmath.SinPi, bigmath.CosPi:
		return Lowered{kind: loweredSinCosPi, numPolys: 2, trig: SinCosPiScheme{fn: f}}
	}
	//lint:ignore barepanic exhaustive Func switch; a new function is a compile-time change.
	panic("reduction: unknown function")
}

// Func identifies the elementary function.
func (l *Lowered) Func() bigmath.Func {
	switch l.kind {
	case loweredLog:
		return l.log.fn
	case loweredExp:
		return l.exp.fn
	case loweredSinhCosh:
		return l.sinh.fn
	default:
		return l.trig.fn
	}
}

// NumPolys is 1, or 2 for the sinh/cosh and sinpi/cospi families.
func (l *Lowered) NumPolys() int { return l.numPolys }

// Reduce maps an input to its reduction state, or reports false when the
// input must take the special path. Identical to Scheme.Reduce.
func (l *Lowered) Reduce(x float64) (Ctx, bool) {
	switch l.kind {
	case loweredLog:
		return l.log.Reduce(x)
	case loweredExp:
		return l.exp.Reduce(x)
	case loweredSinhCosh:
		return l.sinh.Reduce(x)
	default:
		return l.trig.Reduce(x)
	}
}

// Compensate computes the final double result from the polynomial outputs.
// Identical to Scheme.Compensate.
func (l *Lowered) Compensate(ctx Ctx, y0, y1 float64) float64 {
	switch l.kind {
	case loweredLog:
		return l.log.Compensate(ctx, y0, y1)
	case loweredExp:
		return l.exp.Compensate(ctx, y0, y1)
	case loweredSinhCosh:
		return l.sinh.Compensate(ctx, y0, y1)
	default:
		return l.trig.Compensate(ctx, y0, y1)
	}
}

// Special returns the result for special-path inputs. Identical to
// Scheme.Special.
func (l *Lowered) Special(x float64) float64 {
	switch l.kind {
	case loweredLog:
		return l.log.Special(x)
	case loweredExp:
		return l.exp.Special(x)
	case loweredSinhCosh:
		return l.sinh.Special(x)
	default:
		return l.trig.Special(x)
	}
}
