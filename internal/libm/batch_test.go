package libm

import (
	"errors"
	"testing"

	"repro/internal/bigmath"
	"repro/internal/fp"
)

// TestSentinelErrors pins the typed, allocation-free error paths: every
// miss wraps its sentinel (matchable with errors.Is) and names the
// function, and repeated misses return without allocating.
func TestSentinelErrors(t *testing.T) {
	bad := bigmath.Func(-1)
	if _, err := Progressive(bad); !errors.Is(err, ErrNoTables) {
		t.Errorf("Progressive(-1) = %v, want ErrNoTables", err)
	}
	if _, err := RLibmAll(bad); !errors.Is(err, ErrNoBaseline) {
		t.Errorf("RLibmAll(-1) = %v, want ErrNoBaseline", err)
	}
	if _, err := Eval(bad, 1, fp.Bfloat16, fp.RoundNearestEven); !errors.Is(err, ErrNoTables) {
		t.Errorf("Eval(-1) = %v, want ErrNoTables", err)
	}
	if _, err := Bfloat16(bad, 0x3f80); !errors.Is(err, ErrNoTables) {
		t.Errorf("Bfloat16(-1) = %v, want ErrNoTables", err)
	}

	fn := bigmath.CosPi
	oldP := progressive[fn]
	progressive[fn] = nil
	defer func() { progressive[fn] = oldP }()
	if _, err := Progressive(fn); !errors.Is(err, ErrNoTables) {
		t.Errorf("Progressive(cospi, cleared) = %v, want ErrNoTables", err)
	} else if got := err.Error(); got == ErrNoTables.Error() {
		t.Errorf("wrapped error %q does not name the function", got)
	}

	if res, err := Progressive(bigmath.Log2); err == nil {
		wide := res.Levels[len(res.Levels)-1].Extend(4)
		if _, err := Eval(bigmath.Log2, 1.5, wide, fp.RoundNearestEven); !errors.Is(err, ErrTooWide) {
			t.Errorf("Eval(too wide) = %v, want ErrTooWide", err)
		}
		if _, err := Kernel(bigmath.Log2, wide, fp.RoundNearestEven); !errors.Is(err, ErrTooWide) {
			t.Errorf("Kernel(too wide) = %v, want ErrTooWide", err)
		}
	}
}

// TestSentinelErrorsZeroAllocs pins "allocation-free error path": the
// wrapped sentinels are prebuilt, so a missing-table or too-wide call
// costs no fmt.Errorf — including through Kernel and EvalBatch, which
// check the width before compiling.
func TestSentinelErrorsZeroAllocs(t *testing.T) {
	fn := bigmath.CosPi
	oldP, oldB := progressive[fn], rlibmAll[fn]
	progressive[fn], rlibmAll[fn] = nil, nil
	defer func() { progressive[fn], rlibmAll[fn] = oldP, oldB }()
	if n := testing.AllocsPerRun(100, func() {
		if _, err := Progressive(fn); err == nil {
			t.Fatal("expected error")
		}
		if _, err := RLibmAll(fn); err == nil {
			t.Fatal("expected error")
		}
		if _, err := Eval(fn, 0.5, fp.Bfloat16, fp.RoundNearestEven); err == nil {
			t.Fatal("expected error")
		}
	}); n != 0 {
		t.Errorf("missing-table error path allocates %v times per run", n)
	}

	res, err := Progressive(bigmath.Log2)
	if err != nil {
		t.Skip("no committed tables")
	}
	wide := res.Levels[len(res.Levels)-1].Extend(4)
	dst, src := make([]uint64, 1), []float64{1.5}
	if n := testing.AllocsPerRun(100, func() {
		if _, err := Kernel(bigmath.Log2, wide, fp.RoundNearestEven); !errors.Is(err, ErrTooWide) {
			t.Fatalf("Kernel(too wide) = %v, want ErrTooWide", err)
		}
		if err := EvalBatch(bigmath.Log2, dst, src, wide, fp.RoundNearestEven); !errors.Is(err, ErrTooWide) {
			t.Fatalf("EvalBatch(too wide) = %v, want ErrTooWide", err)
		}
	}); n != 0 {
		t.Errorf("too-wide error path allocates %v times per run", n)
	}
}

// TestBatchMatchesPerCall pins the wrapper contract: the batched bit-width
// helpers agree bit for bit with the per-call helpers over every bfloat16
// pattern and a tensorfloat32 sample, and EvalBatch agrees with Eval.
func TestBatchMatchesPerCall(t *testing.T) {
	for _, fn := range bigmath.AllFuncs {
		if !Have(fn) {
			t.Skip("no committed tables")
		}
		n := int(fp.Bfloat16.NumValues())
		src16 := make([]uint16, n)
		dst16 := make([]uint16, n)
		for b := 0; b < n; b++ {
			src16[b] = uint16(b)
		}
		if err := Bfloat16Batch(fn, dst16, src16); err != nil {
			t.Fatalf("%v: Bfloat16Batch: %v", fn, err)
		}
		for b := 0; b < n; b++ {
			want, err := Bfloat16(fn, src16[b])
			if err != nil {
				t.Fatal(err)
			}
			if dst16[b] != want {
				t.Fatalf("%v: bfloat16 %#x: batch %#x, per-call %#x", fn, b, dst16[b], want)
			}
		}

		src32 := make([]uint32, 0, 4096)
		for b := uint32(0); b < uint32(fp.TensorFloat32.NumValues()); b += 131 {
			src32 = append(src32, b)
		}
		dst32 := make([]uint32, len(src32))
		if err := TensorFloat32Batch(fn, dst32, src32); err != nil {
			t.Fatalf("%v: TensorFloat32Batch: %v", fn, err)
		}
		for i, b := range src32 {
			want, err := TensorFloat32(fn, b)
			if err != nil {
				t.Fatal(err)
			}
			if dst32[i] != want {
				t.Fatalf("%v: tf32 %#x: batch %#x, per-call %#x", fn, b, dst32[i], want)
			}
		}

		xs := make([]float64, 512)
		for i := range xs {
			xs[i] = fp.TensorFloat32.Decode(uint64(i * 1021))
		}
		got := make([]uint64, len(xs))
		for _, mode := range fp.StandardModes {
			if err := EvalBatch(fn, got, xs, fp.TensorFloat32, mode); err != nil {
				t.Fatalf("%v/%v: EvalBatch: %v", fn, mode, err)
			}
			for i, x := range xs {
				want, err := Eval(fn, x, fp.TensorFloat32, mode)
				if err != nil {
					t.Fatal(err)
				}
				if got[i] != want {
					t.Fatalf("%v/%v: x=%x: batch %#x, per-call %#x", fn, mode, x, got[i], want)
				}
			}
		}
	}
}

// TestBatchShortDst pins the explicit length contract of the wrappers.
func TestBatchShortDst(t *testing.T) {
	if !Have(bigmath.Exp2) {
		t.Skip("no committed tables")
	}
	if err := Bfloat16Batch(bigmath.Exp2, make([]uint16, 1), make([]uint16, 2)); !errors.Is(err, ErrShortDst) {
		t.Errorf("Bfloat16Batch short dst = %v, want ErrShortDst", err)
	}
	if err := TensorFloat32Batch(bigmath.Exp2, make([]uint32, 0), make([]uint32, 1)); !errors.Is(err, ErrShortDst) {
		t.Errorf("TensorFloat32Batch short dst = %v, want ErrShortDst", err)
	}
	if err := EvalBatch(bigmath.Exp2, nil, make([]float64, 1), fp.Bfloat16, fp.RoundNearestEven); !errors.Is(err, ErrShortDst) {
		t.Errorf("EvalBatch short dst = %v, want ErrShortDst", err)
	}
}

// TestBatchWrapperAllocs pins the steady-state wrapper cost: after the
// kernel is cached, the chunked bit-width helpers allocate nothing.
func TestBatchWrapperAllocs(t *testing.T) {
	if !Have(bigmath.Exp2) {
		t.Skip("no committed tables")
	}
	src := make([]uint16, 600)
	dst := make([]uint16, 600)
	for i := range src {
		src[i] = uint16(i * 109)
	}
	if err := Bfloat16Batch(bigmath.Exp2, dst, src); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(50, func() {
		if err := Bfloat16Batch(bigmath.Exp2, dst, src); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("warm Bfloat16Batch allocates %v times per run", n)
	}
}
