package repro_test

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/bigmath"
	"repro/internal/clarkson"
	"repro/internal/libm"
	"repro/internal/poly"
	"repro/internal/remez"
)

// This file holds the testing.B harnesses that reproduce paper claims no
// workload of the bench/ module measures:
//
//   - BenchmarkTable1Memory — reports the coefficient-storage metrics of
//     Table 1 via b.ReportMetric.
//   - BenchmarkClarksonIterations and BenchmarkClarksonSampleAblation — the
//     §3.4 iteration-bound measurement (6k·log n expectation) and the §3.3
//     sample-size ablation, on constraint systems shaped like the real
//     workload.
//   - BenchmarkMinimaxDegree — the §2.3 minimax-degree motivation.
//
// Run them with go test -bench 'Table1Memory|Clarkson|MinimaxDegree' -run '^$' .
// Timings of the library itself come from bench/ (make bench), and
// cmd/rlibm-table1, cmd/rlibm-table2 and cmd/rlibm-fig4 print the paper's
// tables and figures directly.

func BenchmarkTable1Memory(b *testing.B) {
	totalProg, totalBase := 0, 0
	for _, fn := range bigmath.AllFuncs {
		prog, err1 := libm.Progressive(fn)
		base, err2 := libm.RLibmAll(fn)
		if err1 != nil || err2 != nil {
			b.Skip("generated tables missing")
		}
		totalProg += prog.CoefficientBytes()
		totalBase += base.CoefficientBytes()
	}
	for i := 0; i < b.N; i++ {
	}
	b.ReportMetric(float64(totalProg)/10, "prog-bytes/func")
	b.ReportMetric(float64(totalBase)/10, "rlibmall-bytes/func")
	b.ReportMetric(float64(totalBase)/float64(totalProg), "mem-reduction-x")
}

// BenchmarkClarksonIterations measures the randomized solver's iteration
// count against the paper's 6k·log n expectation on synthetic full-rank
// systems of the real workload's shape.
func BenchmarkClarksonIterations(b *testing.B) {
	const k, n = 5, 200000
	bound := float64(6 * k * int(math.Log(float64(n))))
	totalIters := 0
	runs := 0
	for i := 0; i < b.N; i++ {
		rng := rand.New(rand.NewSource(int64(i)))
		truth := make([]float64, k)
		truth[0] = 1
		for j := 1; j < k; j++ {
			truth[j] = rng.NormFloat64()
		}
		rows := make([]clarkson.Row, n)
		for r := range rows {
			x := rng.Float64() / 64
			v := poly.Horner(truth, x)
			// Tight, heterogeneous interval widths: wide rows make the
			// sample LP trivially feasible in one iteration and would
			// benchmark nothing.
			w := math.Ldexp(1+rng.Float64(), -31-rng.Intn(4))
			rows[r] = clarkson.Row{X: x, Lo: v - w, Hi: v + w, Terms: k}
		}
		res := clarkson.Solve(rows, clarkson.Config{TotalTerms: k, XScale: 1.0 / 64, Rng: rng})
		if !res.Found {
			b.Fatal("solver failed on feasible system")
		}
		totalIters += res.Iters
		runs++
	}
	b.ReportMetric(float64(totalIters)/float64(runs), "iters/solve")
	b.ReportMetric(bound, "6k·ln(n)-bound")
}

// BenchmarkClarksonSampleAblation justifies the 6k² sample size of §3.3/§3.4:
// smaller samples lower the lucky-iteration probability and raise the
// iteration count.
func BenchmarkClarksonSampleAblation(b *testing.B) {
	const k, n = 4, 100000
	for _, factor := range []int{1, 3, 6} {
		factor := factor
		b.Run(fmtSampleName(factor), func(b *testing.B) {
			totalIters := 0
			for i := 0; i < b.N; i++ {
				rng := rand.New(rand.NewSource(int64(i)*7 + 1))
				truth := make([]float64, k)
				truth[0] = 1
				for j := 1; j < k; j++ {
					truth[j] = rng.NormFloat64()
				}
				rows := make([]clarkson.Row, n)
				for r := range rows {
					x := rng.Float64() / 64
					v := poly.Horner(truth, x)
					w := math.Ldexp(1+rng.Float64(), -31-rng.Intn(4))
					rows[r] = clarkson.Row{X: x, Lo: v - w, Hi: v + w, Terms: k}
				}
				res := clarkson.Solve(rows, clarkson.Config{
					TotalTerms: k,
					SampleSize: factor * k * k,
					XScale:     1.0 / 64,
					MaxIters:   4000,
					Rng:        rng,
				})
				if !res.Found {
					b.Fatalf("factor %d: solver failed", factor)
				}
				totalIters += res.Iters
			}
			b.ReportMetric(float64(totalIters)/float64(b.N), "iters/solve")
		})
	}
}

func fmtSampleName(factor int) string {
	return map[int]string{1: "1k2", 3: "3k2", 6: "6k2"}[factor]
}

// BenchmarkMinimaxDegree quantifies the paper's §2.3 motivation with two
// uniform targets for a Remez minimax approximation of the *real value*:
//
//   - generous: 2^-18 of the kernel's maximum output (the round-to-odd
//     relative precision at the largest level, pretending every input had
//     the widest interval);
//   - strict: 2^-18 of the kernel's *smallest* binding output scale
//     (2^-10·max here), which the tight rounding intervals near small
//     outputs actually demand of a uniform approximation.
//
// The interval-based RLIBM-Prog polynomial (rlibm-terms) satisfies every
// per-input interval — including the tight ones the strict target only
// models coarsely — with a comparable term count and, crucially, *without*
// the piecewise sub-domain tables that CR-LIBM and RLibm-All pair their
// minimax/interval fits with. At the paper's full 32-bit scale the
// interval freedom buys whole degrees; at this reproduction's scale the
// measured gap is smaller and the storage reduction of Table 1 carries the
// comparison. A reported degree of 13 means "not reachable by degree 12".
func BenchmarkMinimaxDegree(b *testing.B) {
	kernels := []struct {
		fn     bigmath.Func
		f      func(float64) float64
		lo, hi float64
	}{
		{bigmath.Log2, func(r float64) float64 { return math.Log2(1 + r) }, 0, 1.0 / 128},
		{bigmath.Exp, math.Exp, -math.Ln2 / 128, math.Ln2 / 128},
		{bigmath.Exp2, math.Exp2, -1.0 / 128, 1.0 / 128},
	}
	for _, kc := range kernels {
		kc := kc
		b.Run(kc.fn.String(), func(b *testing.B) {
			maxOut := math.Max(math.Abs(kc.f(kc.lo)), math.Abs(kc.f(kc.hi)))
			generous := maxOut * math.Ldexp(1, -18)
			strict := maxOut * math.Ldexp(1, -28)
			dg, ds := 0, 0
			for i := 0; i < b.N; i++ {
				dg = remez.DegreeFor(kc.f, kc.lo, kc.hi, generous, 12)
				ds = remez.DegreeFor(kc.f, kc.lo, kc.hi, strict, 12)
			}
			b.ReportMetric(float64(dg), "minimax-degree-generous")
			b.ReportMetric(float64(ds), "minimax-degree-strict")
			if res, err := libm.Progressive(kc.fn); err == nil {
				b.ReportMetric(float64(res.TermsAt(len(res.Levels) - 1)[0]), "rlibm-terms")
			}
		})
	}
}
