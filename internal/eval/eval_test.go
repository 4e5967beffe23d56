package eval_test

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"repro/internal/bigmath"
	"repro/internal/eval"
	"repro/internal/fp"
	"repro/internal/gen"
	"repro/internal/libm"
	"repro/internal/obs"
)

// compileFor compiles the serving kernel of (fn, out, mode) from the
// registered progressive tables, skipping when tables are missing.
func compileFor(t testing.TB, fn bigmath.Func, out fp.Format, mode fp.Mode) (*gen.Result, *eval.Kernel, int) {
	t.Helper()
	res, err := libm.Progressive(fn)
	if err != nil {
		t.Skip(err)
	}
	li, ok := res.ServingLevel(out, mode)
	if !ok {
		t.Fatalf("%v: no serving level for %v/%v", fn, out, mode)
	}
	k, err := eval.Compile(res, out, mode)
	if err != nil {
		t.Fatalf("Compile(%v, %v, %v): %v", fn, out, mode, err)
	}
	if k.Level() != li || k.Format() != out || k.Mode() != mode || k.Func() != fn {
		t.Fatalf("%v: kernel metadata mismatch: level %d want %d", fn, k.Level(), li)
	}
	return res, k, li
}

// TestEvalBatchMatchesReferenceExhaustive is the acceptance sweep: for all
// ten functions × all five standard rounding modes, every bfloat16 bit
// pattern evaluated through the batch kernel must be bit-identical to the
// per-call reference path gen.Result.Eval at the same serving level.
func TestEvalBatchMatchesReferenceExhaustive(t *testing.T) {
	out := fp.Bfloat16
	n := out.NumValues()
	src := make([]float64, n)
	dst := make([]uint64, n)
	for _, fn := range bigmath.AllFuncs {
		for _, mode := range fp.StandardModes {
			res, k, li := compileFor(t, fn, out, mode)
			for b := uint64(0); b < n; b++ {
				src[b] = out.Decode(b)
			}
			k.EvalBatch(dst, src)
			for b := uint64(0); b < n; b++ {
				if want := res.Eval(src[b], li, out, mode); dst[b] != want {
					t.Fatalf("%v/%v: input bits %#x (%x): batch %#x, reference %#x",
						fn, mode, b, src[b], dst[b], want)
				}
			}
		}
	}
}

// TestEvalBatchMatchesReferenceRandomized cross-checks the larger formats —
// tensorfloat32 and the largest generated level — on random bit patterns
// plus the format's edge patterns, under all five standard modes.
func TestEvalBatchMatchesReferenceRandomized(t *testing.T) {
	largest, ok := libm.LargestFormat()
	if !ok {
		t.Skip("generated tables missing; run cmd/rlibm-gen -emit internal/libm")
	}
	rng := rand.New(rand.NewSource(23))
	for _, out := range []fp.Format{fp.TensorFloat32, largest} {
		edges := []uint64{
			0, out.Zero(true), out.MinSubnormal(), out.MaxFinite(),
			out.Inf(false), out.Inf(true), out.NaN(),
			out.Zero(true) | out.MinSubnormal(), out.Zero(true) | out.MaxFinite(),
		}
		var bits []uint64
		bits = append(bits, edges...)
		for i := 0; i < 20000; i++ {
			bits = append(bits, rng.Uint64()%out.NumValues())
		}
		src := make([]float64, len(bits))
		dst := make([]uint64, len(bits))
		for _, fn := range bigmath.AllFuncs {
			for _, mode := range fp.StandardModes {
				res, k, li := compileFor(t, fn, out, mode)
				for i, b := range bits {
					src[i] = out.Decode(b)
				}
				k.EvalBatch(dst, src)
				for i := range bits {
					if want := res.Eval(src[i], li, out, mode); dst[i] != want {
						t.Fatalf("%v/%v/%v: input bits %#x: batch %#x, reference %#x",
							fn, out, mode, bits[i], dst[i], want)
					}
				}
			}
		}
	}
}

// TestEvalBatchBaselineMatchesReference covers the many-piece kernels: the
// RLibm-All baseline tables (up to 256 pieces per kernel, which Figure 4
// times through eval.Compile) evaluate through the batch kernel exactly as
// through gen.Result.Eval, over every bfloat16 pattern plus random
// patterns of the baseline's format, under all five standard modes.
func TestEvalBatchBaselineMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for _, fn := range bigmath.AllFuncs {
		res, err := libm.RLibmAll(fn)
		if err != nil {
			t.Skip(err)
		}
		wide := res.Levels[len(res.Levels)-1]
		for _, out := range []fp.Format{fp.Bfloat16, wide} {
			var src []float64
			if out == fp.Bfloat16 {
				for b := uint64(0); b < out.NumValues(); b++ {
					src = append(src, out.Decode(b))
				}
			} else {
				for i := 0; i < 20000; i++ {
					src = append(src, out.Decode(rng.Uint64()%out.NumValues()))
				}
			}
			dst := make([]uint64, len(src))
			for _, mode := range fp.StandardModes {
				k, err := eval.Compile(res, out, mode)
				if err != nil {
					t.Fatalf("Compile(%v baseline, %v, %v): %v", fn, out, mode, err)
				}
				k.EvalBatch(dst, src)
				for i, x := range src {
					if want := res.Eval(x, k.Level(), out, mode); dst[i] != want {
						t.Fatalf("%v baseline/%v/%v: input %x: batch %#x, reference %#x",
							fn, out, mode, x, dst[i], want)
					}
				}
			}
		}
	}
}

// TestEvalBatchSpecialTable pins the hash classifier against the reference
// sort.Search: every special-table input of every level must take the
// special path in the batch kernel and answer with the same bits.
func TestEvalBatchSpecialTable(t *testing.T) {
	for _, fn := range bigmath.AllFuncs {
		res, err := libm.Progressive(fn)
		if err != nil {
			t.Skip(err)
		}
		for li, specials := range res.Specials {
			if len(specials) == 0 {
				continue
			}
			out := res.Levels[li]
			for _, mode := range fp.StandardModes {
				k, err := eval.CompileAt(res, li, out, mode)
				if err != nil {
					t.Fatalf("CompileAt(%v, %d): %v", fn, li, err)
				}
				for _, s := range specials {
					if got, want := k.Eval(s.X), res.Eval(s.X, li, out, mode); got != want {
						t.Fatalf("%v level %d mode %v: special %x: batch %#x, reference %#x",
							fn, li, mode, s.X, got, want)
					}
				}
			}
		}
	}
}

// TestEvalBatchZeroAllocs pins the performance contract's allocation half:
// a compiled kernel's EvalBatch allocates nothing, including on batches
// that hit special paths, in the batch loop of every reduction family.
func TestEvalBatchZeroAllocs(t *testing.T) {
	src := []float64{0.5, -1.25, 3, 200, -200, 0, math.NaN(), math.Inf(1), math.Inf(-1),
		1e-12, 0.7265625, 1, 1.5, 0x1p-17}
	dst := make([]uint64, len(src))
	for _, fn := range []bigmath.Func{bigmath.Log2, bigmath.Exp2, bigmath.Sinh, bigmath.CosPi} {
		_, k, _ := compileFor(t, fn, fp.Bfloat16, fp.RoundNearestEven)
		if n := testing.AllocsPerRun(200, func() { k.EvalBatch(dst, src) }); n != 0 {
			t.Fatalf("%v: EvalBatch allocates %v times per run", fn, n)
		}
	}
}

// familyBoundaries lists the inputs at which a range reduction changes
// path: the exp/exp2/exp10 overflow and underflow cutoffs (90.5/−109.5,
// 130/−157, 39.5/−47.5), expTinyCut (2^-31), sinhTinyCut (2^-18),
// sinhOverflowCut (91), trigAnchorCut (2^-17) around the anchors i=0
// (w = 0) and i=32 (w = ½), inputs with 2x integral, and 1 (log's x==1).
func familyBoundaries() []float64 {
	vs := []float64{90.5, -109.5, 130, -157, 39.5, -47.5, 0x1p-31, 0x1p-18, 91}
	for _, anchor := range []float64{0, 0.5, 1, 1.5, 2, 2.5} {
		vs = append(vs, anchor, anchor+0x1p-17, anchor-0x1p-17)
	}
	return append(vs, 3, 0x1p20, 0x1p20+0.5)
}

// TestEvalBatchFamilyBoundaries pins every family loop's path switches on
// the largest generated format, under all five standard modes: at each
// reduction cutoff (both signs), the two encodings on either side of it,
// and the format's edge patterns (±0, ±∞, NaN, the smallest subnormal and
// the largest finite value), the kernel must equal gen.Result.Eval.
func TestEvalBatchFamilyBoundaries(t *testing.T) {
	out, ok := libm.LargestFormat()
	if !ok {
		t.Skip("generated tables missing; run cmd/rlibm-gen -emit internal/libm")
	}
	bits := []uint64{
		0, out.Zero(true), out.MinSubnormal(), out.Zero(true) | out.MinSubnormal(),
		out.MaxFinite(), out.Zero(true) | out.MaxFinite(),
		out.Inf(false), out.Inf(true), out.NaN(),
	}
	for _, c := range familyBoundaries() {
		for _, v := range []float64{c, -c} {
			b := out.FromFloat64(v, fp.RoundTowardZero)
			sign := b & out.Zero(true)
			for d := -2; d <= 2; d++ {
				mag := int64(b&^sign) + int64(d)
				if mag >= 0 && uint64(mag) <= out.MaxFinite() {
					bits = append(bits, sign|uint64(mag))
				}
			}
		}
	}
	src := make([]float64, len(bits))
	for i, b := range bits {
		src[i] = out.Decode(b)
	}
	dst := make([]uint64, len(src))
	for _, fn := range bigmath.AllFuncs {
		for _, mode := range fp.StandardModes {
			res, k, li := compileFor(t, fn, out, mode)
			k.EvalBatch(dst, src)
			for i, x := range src {
				if want := res.Eval(x, li, out, mode); dst[i] != want {
					t.Fatalf("%v/%v/%v: input bits %#x (%x): batch %#x, reference %#x",
						fn, out, mode, bits[i], x, dst[i], want)
				}
			}
		}
	}
}

// TestEvalBatchCounters pins the observability wiring: one batch records
// batches/inputs/special-hits and the truncated-vs-full split once, on the
// attached span only.
func TestEvalBatchCounters(t *testing.T) {
	res, k, _ := compileFor(t, bigmath.Exp2, fp.Bfloat16, fp.RoundNearestEven)
	if !k.Truncated() {
		t.Fatalf("bfloat16 rn kernel should serve a truncated level")
	}
	rec := obs.New("run")
	k.Observe(rec.Root())
	src := []float64{0.5, math.NaN(), 2, -1}
	dst := make([]uint64, len(src))
	k.EvalBatch(dst, src)

	full, err := eval.CompileAt(res, len(res.Levels)-1, fp.Bfloat16, fp.RoundNearestEven)
	if err != nil {
		t.Fatal(err)
	}
	if full.Truncated() {
		t.Fatalf("largest-level kernel reported truncated")
	}
	full.Observe(rec.Root())
	full.EvalBatch(dst, src)

	got := rec.Report().Counters
	want := map[string]int64{
		"eval.batches": 2, "eval.inputs": 8,
		"eval.special_hits": 2, "eval.truncated": 3, "eval.full": 3,
	}
	for name, n := range want {
		if got[name] != n {
			t.Errorf("counter %s = %d, want %d", name, got[name], n)
		}
	}
}

// TestCompileErrors covers the typed failure paths.
func TestCompileErrors(t *testing.T) {
	res, err := libm.Progressive(bigmath.Log2)
	if err != nil {
		t.Skip(err)
	}
	wide := res.Levels[len(res.Levels)-1].Extend(4)
	if _, err := eval.Compile(res, wide, fp.RoundNearestEven); !errors.Is(err, eval.ErrTooWide) {
		t.Fatalf("Compile(%v) error = %v, want ErrTooWide", wide, err)
	}
	if _, err := eval.Compile(nil, fp.Bfloat16, fp.RoundNearestEven); err == nil {
		t.Fatal("Compile(nil) succeeded")
	}
	if _, err := eval.CompileAt(res, len(res.Levels), fp.Bfloat16, fp.RoundNearestEven); err == nil {
		t.Fatal("CompileAt(out-of-range level) succeeded")
	}
	if _, err := eval.CompileAt(res, -1, fp.Bfloat16, fp.RoundNearestEven); err == nil {
		t.Fatal("CompileAt(-1) succeeded")
	}
}

// TestEvalBatchPanicsOnShortDst pins the explicit length contract.
func TestEvalBatchPanicsOnShortDst(t *testing.T) {
	_, k, _ := compileFor(t, bigmath.Exp2, fp.Bfloat16, fp.RoundNearestEven)
	defer func() {
		if recover() == nil {
			t.Fatal("EvalBatch with short dst did not panic")
		}
	}()
	k.EvalBatch(make([]uint64, 1), make([]float64, 2))
}
