package eval_test

import (
	"sync"
	"testing"

	"repro/internal/bigmath"
	"repro/internal/eval"
	"repro/internal/fp"
	"repro/internal/libm"
)

// fuzzKernels caches one compiled kernel per (function, width, mode): a
// fuzzing process calls the target many times over the same 650 cells.
var fuzzKernels sync.Map

type fuzzCell struct {
	fn   bigmath.Func
	bits int
	mode fp.Mode
}

// FuzzKernel asserts the serving contract on random cells: for a function,
// an output format F(n,8) with n in 10..22, an input bit pattern of that
// format and a standard rounding mode, the compiled kernel (the product)
// returns exactly the bits of gen.Result.Eval (the specification) at the
// kernel's serving level, over the committed tables. Seeds under
// testdata/fuzz/FuzzKernel pin the edge patterns: zeros, the smallest
// subnormal, the largest finite value, infinities and NaN.
func FuzzKernel(f *testing.F) {
	f.Add(uint8(0), uint8(0), uint64(0), uint8(0))
	f.Add(uint8(3), uint8(6), uint64(0x3f80), uint8(1))    // exp2(1) in bfloat16
	f.Add(uint8(9), uint8(12), uint64(0x3fffff), uint8(4)) // NaN in F22,8
	f.Fuzz(func(t *testing.T, fnIdx, width uint8, in uint64, modeIdx uint8) {
		cell := fuzzCell{
			fn:   bigmath.AllFuncs[int(fnIdx)%len(bigmath.AllFuncs)],
			bits: 10 + int(width)%13,
			mode: fp.StandardModes[int(modeIdx)%len(fp.StandardModes)],
		}
		out := fp.MustFormat(cell.bits, 8)
		res, err := libm.Progressive(cell.fn)
		if err != nil {
			t.Skip(err)
		}
		var k *eval.Kernel
		if v, ok := fuzzKernels.Load(cell); ok {
			k = v.(*eval.Kernel)
		} else {
			if k, err = eval.Compile(res, out, cell.mode); err != nil {
				t.Fatalf("Compile(%v, %v, %v): %v", cell.fn, out, cell.mode, err)
			}
			fuzzKernels.Store(cell, k)
		}
		x := out.Decode(in & (out.NumValues() - 1))
		if got, want := k.Eval(x), res.Eval(x, k.Level(), out, cell.mode); got != want {
			t.Fatalf("%v/%v/%v: input %x: kernel %#x, reference %#x", cell.fn, out, cell.mode, x, got, want)
		}
	})
}
