package libm

import (
	"errors"
	"sync"

	"repro/internal/bigmath"
	"repro/internal/eval"
	"repro/internal/fp"
)

// This file is the batched serving surface of the library: thin wrappers
// over internal/eval kernels compiled once per (function, format, mode) and
// cached for the life of the process. The wrappers add nothing to the hot
// loop — kernel lookup is one sync.Map probe, and the bit-width helpers
// chunk through fixed stack buffers so they allocate nothing either.

// kernelKey identifies one compiled kernel in the cache.
type kernelKey struct {
	fn   bigmath.Func
	bits int
	exp  int
	mode fp.Mode
}

// kernels caches compiled *eval.Kernel values. Kernels are immutable and
// deterministic for a given registered table set, so a LoadOrStore race
// compiling twice is harmless — both candidates evaluate identically.
var kernels sync.Map // kernelKey → *eval.Kernel

// Kernel returns the cached batch kernel serving (fn, out, mode), compiling
// it on first use. Errors wrap ErrNoTables or ErrTooWide.
func Kernel(fn bigmath.Func, out fp.Format, mode fp.Mode) (*eval.Kernel, error) {
	key := kernelKey{fn: fn, bits: out.Bits(), exp: out.ExpBits(), mode: mode}
	if v, ok := kernels.Load(key); ok {
		return v.(*eval.Kernel), nil
	}
	res, err := Progressive(fn)
	if err != nil {
		return nil, err
	}
	// Width first: the sentinel is prebuilt, where Compile's own too-wide
	// error would be formatted (and allocated) on every call.
	if _, ok := res.ServingLevel(out, mode); !ok {
		return nil, errFor(&errTooWide, fn)
	}
	k, err := eval.Compile(res, out, mode)
	if err != nil {
		return nil, err
	}
	v, _ := kernels.LoadOrStore(key, k)
	return v.(*eval.Kernel), nil
}

// EvalBatch computes fn over src correctly rounded into out under mode,
// writing one output bit pattern per input into dst (at least as long as
// src). Inputs must be values of out. Results are bit-identical to calling
// Eval per input; the batch path amortizes dispatch, table snapshots and
// rounding setup over the slice.
func EvalBatch(fn bigmath.Func, dst []uint64, src []float64, out fp.Format, mode fp.Mode) error {
	if len(dst) < len(src) {
		return ErrShortDst
	}
	k, err := Kernel(fn, out, mode)
	if err != nil {
		return err
	}
	k.EvalBatch(dst, src)
	return nil
}

// ErrShortDst reports a destination slice shorter than the source.
var ErrShortDst = errors.New("libm: dst shorter than src")

// batchChunk sizes the stack buffers of the bit-width helpers: large enough
// to amortize the kernel-cache probe, small enough to stay on the stack.
const batchChunk = 256

// Bfloat16Batch computes fn over a slice of bfloat16 bit patterns with
// round-to-nearest, evaluating only the progressive prefix of the
// polynomial (the paper's k₃-term truncated evaluation). dst must be at
// least as long as src.
func Bfloat16Batch(fn bigmath.Func, dst, src []uint16) error {
	return batchBits(fn, fp.Bfloat16, dst, src)
}

// TensorFloat32Batch computes fn over a slice of tensorfloat32 (19-bit)
// patterns with round-to-nearest, evaluating the k₂-term truncated prefix.
// dst must be at least as long as src.
func TensorFloat32Batch(fn bigmath.Func, dst, src []uint32) error {
	return batchBits(fn, fp.TensorFloat32, dst, src)
}

// batchBits is the body of the bit-width helpers: it decodes src chunk by
// chunk through fixed stack buffers, runs f's round-to-nearest kernel and
// narrows the result patterns into dst.
func batchBits[T uint16 | uint32](fn bigmath.Func, f fp.Format, dst, src []T) error {
	if len(dst) < len(src) {
		return ErrShortDst
	}
	k, err := Kernel(fn, f, fp.RoundNearestEven)
	if err != nil {
		return err
	}
	var xs [batchChunk]float64
	var ys [batchChunk]uint64
	for len(src) > 0 {
		n := min(len(src), batchChunk)
		for i := 0; i < n; i++ {
			xs[i] = f.Decode(uint64(src[i]))
		}
		k.EvalBatch(ys[:n], xs[:n])
		for i := 0; i < n; i++ {
			dst[i] = T(ys[i])
		}
		src, dst = src[n:], dst[n:]
	}
	return nil
}
