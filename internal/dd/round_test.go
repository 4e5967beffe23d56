package dd

import (
	"math"
	"testing"

	"repro/internal/bigmath"
	"repro/internal/fp"
)

// TestEnvelopeMargin measures Eval's error on the inputs the oracle's quick
// phase serves: every bfloat16 input and a fixed stride of F(22,8), for all
// ten functions. Wherever RoundUnambiguous's guards admit the result, the
// error must stay at or below 2^-56, 64× inside Envelope. The ±MaxFloat64
// overflow proxies are skipped: they bound no error, and round as an
// overflow in every format (see RoundUnambiguous).
func TestEnvelopeMargin(t *testing.T) {
	const bound = -56
	if bound > math.Log2(Envelope)-6 {
		t.Fatalf("bound 2^%d is not 64x inside the envelope", bound)
	}
	f22 := fp.MustFormat(22, 8)
	var xs []float64
	for b := uint64(0); b < fp.Bfloat16.NumValues(); b++ {
		xs = append(xs, fp.Bfloat16.Decode(b))
	}
	for b := uint64(0); b < f22.NumValues(); b += 509 {
		xs = append(xs, f22.Decode(b))
	}
	for _, fn := range bigmath.AllFuncs {
		t.Run(fn.String(), func(t *testing.T) {
			t.Parallel()
			worst, worstX, n := -1000.0, 0.0, 0
			for _, x := range xs {
				v := Eval(fn, x)
				if math.IsNaN(v.Hi) || math.IsInf(v.Hi, 0) || math.Abs(v.Hi) <= 0x1p-960 ||
					math.Abs(v.Hi) == math.MaxFloat64 {
					continue
				}
				n++
				if e := relErrExp(v, bigmath.Eval(fn, x, 160)); e > worst {
					worst, worstX = e, x
				}
			}
			if worst > bound {
				t.Errorf("worst relative error 2^%.1f at x=%g (%d inputs)", worst, worstX, n)
			}
			t.Logf("worst relative error 2^%.1f at x=%g over %d inputs", worst, worstX, n)
		})
	}
}

// The guards turn away the results whose error Envelope does not bound, and
// the test decides only what it can: a 51-bit target's rounding boundaries
// lie closer together than the envelope is wide.
func TestRoundUnambiguous(t *testing.T) {
	out := fp.MustFormat(27, 8)
	for _, v := range []DD{{Hi: math.NaN()}, {Hi: math.Inf(1)}, {Hi: math.Inf(-1)},
		{Hi: 0}, {Hi: math.Copysign(0, -1)}, {Hi: 0x1p-960}, {Hi: -0x1p-1000}} {
		if _, ok := RoundUnambiguous(v, out, fp.RoundNearestEven); ok {
			t.Errorf("%v admitted", v)
		}
	}
	wide := fp.MustFormat(60, 8)
	for _, mode := range fp.AllModes {
		v := Eval(bigmath.Exp, 1.5)
		got, ok := RoundUnambiguous(v, out, mode)
		if want := bigmath.CorrectlyRounded(bigmath.Exp, 1.5, out, mode); !ok || got != want {
			t.Errorf("exp(1.5) %v %v: got %#x, %v; want %#x", out, mode, got, ok, want)
		}
		if _, ok := RoundUnambiguous(v, wide, mode); ok {
			t.Errorf("exp(1.5) %v %v decided", wide, mode)
		}
	}
}
