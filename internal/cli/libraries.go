package cli

import (
	"errors"

	"repro/internal/baseline"
	"repro/internal/bigmath"
	"repro/internal/fp"
	"repro/internal/gen"
	"repro/internal/libm"
	"repro/internal/obs"
	"repro/internal/verify"
)

// Libraries are the two generated libraries the paper commands compare —
// RLIBM-Prog and the RLibm-All baseline — and the largest format they
// serve.
type Libraries struct {
	Prog, Base func(bigmath.Func) (*gen.Result, error)
	Largest    fp.Format
}

// Libraries returns the generated libraries of a paper command: the
// emitted internal/libm tables, or with generate, each function generated
// once through the staged pipeline (GenerateVerified) in the flags' store,
// under rec's root span, so sibling commands share one cache. done releases
// the run context and the store; defer it.
func (c *Common) Libraries(generate bool, rec *obs.Recorder) (libs Libraries, done func(), err error) {
	if !generate {
		largest, ok := libm.LargestFormat()
		if !ok {
			return libs, nil, errors.New("no generated tables; run go run ./cmd/rlibm-gen -emit internal/libm && go run ./cmd/rlibm-gen -baseline -emit internal/libm (or pass -generate)")
		}
		return Libraries{Prog: libm.Progressive, Base: libm.RLibmAll, Largest: largest}, func() {}, nil
	}
	store, err := c.Store()
	if err != nil {
		return libs, nil, err
	}
	ctx, cancel := c.Context()
	ctx = obs.WithSpan(ctx, rec.Root())
	logf := c.Logf()
	generated := func(options func(bigmath.Func) gen.Options) func(bigmath.Func) (*gen.Result, error) {
		results := map[bigmath.Func]*gen.Result{}
		return func(fn bigmath.Func) (*gen.Result, error) {
			if res, ok := results[fn]; ok {
				return res, nil
			}
			res, _, err := GenerateVerified(ctx, fn, options(fn), store)
			if err != nil {
				return nil, err
			}
			results[fn] = res
			return res, nil
		}
	}
	return Libraries{
		Prog:    generated(func(bigmath.Func) gen.Options { return c.ProgressiveOptions(false, logf) }),
		Base:    generated(func(fn bigmath.Func) gen.Options { return c.BaselineOptions(fn, logf) }),
		Largest: fp.MustFormat(c.Bits, 8),
	}, func() { cancel(); c.CloseStore() }, nil
}

// Library is one math library the paper checks: a column of Table 2 and a
// value of rlibm-check -lib.
type Library struct {
	Name   string    // the rlibm-check -lib value
	Column string    // the Table 2 column heading
	Modes  []fp.Mode // the rounding modes the library supports
	// Impl returns the library's fn for format f. A generated library's is
	// its compiled serving kernels, so a check covers the code users call.
	Impl func(fn bigmath.Func, f fp.Format) (verify.Impl, error)
}

// List returns the checked libraries in Table 2's column order.
func (l Libraries) List() []Library {
	kernels := func(load func(bigmath.Func) (*gen.Result, error)) func(bigmath.Func, fp.Format) (verify.Impl, error) {
		return func(fn bigmath.Func, f fp.Format) (verify.Impl, error) {
			res, err := load(fn)
			if err != nil {
				return nil, err
			}
			return verify.Compile(res, f)
		}
	}
	return []Library{
		{"prog", "RLIBM-Prog", fp.StandardModes, kernels(l.Prog)},
		{"glibc", "glibc-sub", fp.StandardModes, func(fn bigmath.Func, _ fp.Format) (verify.Impl, error) {
			return baseline.MathLibm{Fn: fn}, nil
		}},
		{"intel", "intel-sub", fp.StandardModes, func(fn bigmath.Func, _ fp.Format) (verify.Impl, error) {
			return baseline.DDLibm{Fn: fn}, nil
		}},
		{"crlibm", "crlibm-sub", []fp.Mode{fp.RoundNearestEven, fp.RoundTowardZero, fp.RoundTowardPositive, fp.RoundTowardNegative},
			func(fn bigmath.Func, _ fp.Format) (verify.Impl, error) { return baseline.CRLibm{Fn: fn}, nil }},
		{"rlibm-all", "RLibm-All", fp.StandardModes, kernels(l.Base)},
	}
}
