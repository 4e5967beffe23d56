package eval_test

import (
	"math/rand"
	"testing"

	"repro/internal/bigmath"
	"repro/internal/eval"
	"repro/internal/fp"
	"repro/internal/libm"
	"repro/internal/reduction"
)

// benchCell is one (function, format, mode) cell of the eval-lib
// benchmark's phase A: its compiled kernel and its in-domain batches.
type benchCell struct {
	fn      bigmath.Func
	k       *eval.Kernel
	batches [][]float64
}

// evalLibCells rebuilds the eval-lib workload's phase-A set-up: 10
// functions × {bfloat16 rn, tensorfloat32 rn, largest format × 5 modes} =
// 70 cells, each with four 1024-input batches of inputs the function's
// range reduction accepts, drawn from seed 1 in the workload's order (the
// phase-B corpus of each cell is drawn and discarded so the batches stay
// the workload's own).
func evalLibCells(tb testing.TB) []benchCell {
	const (
		batchLen = 1024
		batches  = 4
		corpusB  = 4096
	)
	largest, ok := libm.LargestFormat()
	if !ok {
		tb.Skip(libm.ErrNoTables)
	}
	rng := rand.New(rand.NewSource(1))
	var cells []benchCell
	for _, fn := range bigmath.AllFuncs {
		res, err := libm.Progressive(fn)
		if err != nil {
			tb.Fatal(err)
		}
		scheme := reduction.ForFunc(fn)
		add := func(f fp.Format, mode fp.Mode) {
			k, err := eval.Compile(res, f, mode)
			if err != nil {
				tb.Fatal(err)
			}
			c := benchCell{fn: fn, k: k}
			mask := f.NumValues() - 1
			for len(c.batches) < batches {
				batch := make([]float64, 0, batchLen)
				for len(batch) < batchLen {
					x := f.Decode(rng.Uint64() & mask)
					if _, ok := scheme.Reduce(x); ok {
						batch = append(batch, x)
					}
				}
				c.batches = append(c.batches, batch)
			}
			for i := 0; i < corpusB; i++ {
				rng.Uint64()
			}
			cells = append(cells, c)
		}
		add(fp.Bfloat16, fp.RoundNearestEven)
		add(fp.TensorFloat32, fp.RoundNearestEven)
		for _, m := range fp.StandardModes {
			add(largest, m)
		}
	}
	return cells
}

// BenchmarkEvalBatch times Kernel.EvalBatch per reduction family over the
// eval-lib phase-A cells of that family, one batch per cell per iteration,
// and reports ns/input. A developer tool, not a gate:
//
//	go test -run '^$' -bench EvalBatch ./internal/eval/
func BenchmarkEvalBatch(b *testing.B) {
	cells := evalLibCells(b)
	families := []struct {
		name string
		fns  []bigmath.Func
	}{
		{"log", []bigmath.Func{bigmath.Ln, bigmath.Log2, bigmath.Log10}},
		{"exp", []bigmath.Func{bigmath.Exp, bigmath.Exp2, bigmath.Exp10}},
		{"sinhcosh", []bigmath.Func{bigmath.Sinh, bigmath.Cosh}},
		{"sincospi", []bigmath.Func{bigmath.SinPi, bigmath.CosPi}},
	}
	for _, fam := range families {
		var fc []benchCell
		for _, c := range cells {
			for _, fn := range fam.fns {
				if c.fn == fn {
					fc = append(fc, c)
				}
			}
		}
		b.Run(fam.name, func(b *testing.B) {
			dst := make([]uint64, len(fc[0].batches[0]))
			inputs := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, c := range fc {
					src := c.batches[i%len(c.batches)]
					c.k.EvalBatch(dst, src)
					inputs += len(src)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(inputs), "ns/input")
		})
	}
}
