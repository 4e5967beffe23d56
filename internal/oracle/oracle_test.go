package oracle

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/bigmath"
	"repro/internal/fp"
)

// Exhaustive cross-validation against the unaccelerated bigmath oracle on a
// small format with the full exponent range: every accelerated path must
// agree bit-for-bit with the reference on every input.
func TestResultMatchesReferenceExhaustive(t *testing.T) {
	in := fp.MustFormat(12, 8)
	out := in.Extend(2)
	modes := []fp.Mode{fp.RoundNearestEven, fp.RoundToOdd, fp.RoundTowardPositive}
	for _, fn := range bigmath.AllFuncs {
		o := New(fn)
		for b := uint64(0); b < in.NumValues(); b++ {
			x := in.Decode(b)
			for _, mode := range modes {
				got := o.Result(x, out, mode)
				want := bigmath.CorrectlyRounded(fn, x, out, mode)
				if got != want {
					t.Fatalf("%v(%g) [in bits %#x] mode %v: got %#x want %#x",
						fn, x, b, mode, got, want)
				}
			}
		}
		s := o.Stats()
		if s.Total() != in.NumValues()*uint64(len(modes)) {
			t.Errorf("%v: stats total %d != queries %d", fn, s.Total(), in.NumValues()*uint64(len(modes)))
		}
	}
}

// Random cross-validation on the paper's actual formats.
func TestResultMatchesReferenceRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	formats := []fp.Format{fp.Bfloat16, fp.TensorFloat32}
	for _, fn := range bigmath.AllFuncs {
		o := New(fn)
		for _, in := range formats {
			out := in.Extend(2)
			for i := 0; i < 400; i++ {
				b := uint64(rng.Int63()) & (in.NumValues() - 1)
				x := in.Decode(b)
				mode := fp.AllModes[rng.Intn(len(fp.AllModes))]
				got := o.Result(x, out, mode)
				want := bigmath.CorrectlyRounded(fn, x, out, mode)
				if got != want {
					t.Fatalf("%v(%g) %v mode %v: got %#x want %#x", fn, x, in, mode, got, want)
				}
			}
		}
	}
}

// Every path must actually fire on its target region: the shortcuts, the
// quick phase, and the Ziv fallback at a format the quick phase's envelope
// can never decide.
func TestAccelerationPathsFire(t *testing.T) {
	out := fp.MustFormat(27, 8)

	o := New(bigmath.Exp)
	o.Result(math.Ldexp(1, -40), out, fp.RoundToOdd) // anchor
	o.Result(500, out, fp.RoundNearestEven)          // overflow clamp
	o.Result(-500, out, fp.RoundNearestEven)         // underflow clamp
	o.Result(0, out, fp.RoundNearestEven)            // exact
	o.Result(math.Inf(1), out, fp.RoundNearestEven)  // special
	o.Result(1.5, out, fp.RoundNearestEven)          // quick phase
	s := o.Stats()
	if s.Anchors != 1 || s.Clamps != 2 || s.Exacts != 1 || s.Specials != 1 || s.Shared != 1 || s.FullEvals != 0 {
		t.Errorf("exp stats: %+v", s)
	}

	// F(60,8) carries 51 mantissa bits: its rounding boundaries lie closer
	// together than the 2^-50 envelope is wide, so every query escalates.
	wide := fp.MustFormat(60, 8)
	ow := New(bigmath.Exp)
	for _, mode := range fp.AllModes {
		if got, want := ow.Result(1.5, wide, mode), bigmath.CorrectlyRounded(bigmath.Exp, 1.5, wide, mode); got != want {
			t.Errorf("exp(1.5) F60,8 %v: got %#x want %#x", mode, got, want)
		}
	}
	if s := ow.Stats(); s.Shared != 0 || s.Ambiguous != uint64(len(fp.AllModes)) || s.FullEvals != s.Ambiguous {
		t.Errorf("exp F60,8 stats: %+v", s)
	}

	oc := New(bigmath.CosPi)
	oc.Result(math.Ldexp(1, -40), out, fp.RoundToOdd) // anchor
	oc.Result(0.3125, out, fp.RoundToOdd)             // quick phase
	if s := oc.Stats(); s.Anchors != 1 || s.Shared != 1 || s.FullEvals != 0 {
		t.Errorf("cospi stats: %+v", s)
	}
}

// cospiAnchor mirrors anchorShortcut's cospi threshold for out.
func cospiAnchor(out fp.Format) float64 { return math.Ldexp(1, -(out.MantBits()+6)/2-3) }

// The cospi anchor at its edge: ±threshold (anchored) and the inputs one
// encoding either side of it, for every round-to-odd target F(k+2,8) of the
// served formats and every mode, against the unaccelerated reference.
func TestCosPiAnchorEdge(t *testing.T) {
	for k := 10; k <= 22; k++ {
		in := fp.MustFormat(k, 8)
		out := in.Extend(2)
		th := in.FromFloat64(cospiAnchor(out), fp.RoundNearestEven)
		if in.Decode(th) != cospiAnchor(out) {
			t.Fatalf("%v: threshold %g not representable", in, cospiAnchor(out))
		}
		o := New(bigmath.CosPi)
		for _, b := range []uint64{in.NextDown(th), th, in.NextUp(th)} {
			for _, neg := range []bool{false, true} {
				x := in.Decode(b)
				if neg {
					x = -x
				}
				for _, mode := range fp.AllModes {
					before := o.Stats().Anchors
					got := o.Result(x, out, mode)
					if want := bigmath.CorrectlyRounded(bigmath.CosPi, x, out, mode); got != want {
						t.Errorf("cospi(%g) %v %v: got %#x want %#x", x, out, mode, got, want)
					}
					if anchored := o.Stats().Anchors > before; anchored != (b != in.NextUp(th)) {
						t.Errorf("cospi(%g) %v: anchored=%v", x, out, anchored)
					}
				}
			}
		}
	}
}

// Anchor shortcut edge: results adjacent to 1 must respect every mode,
// including round-to-odd parity on both sides of 1.
func TestJustAside(t *testing.T) {
	out := fp.Bfloat16
	one := out.FromFloat64(1, fp.RoundNearestEven)
	up, down := out.NextUp(one), out.NextDown(one)

	o := New(bigmath.Exp)
	tiny := math.Ldexp(1, -30)
	cases := []struct {
		x    float64
		mode fp.Mode
		want uint64
	}{
		{tiny, fp.RoundNearestEven, one},
		{tiny, fp.RoundTowardZero, one},
		{tiny, fp.RoundTowardPositive, up},
		{tiny, fp.RoundTowardNegative, one},
		{tiny, fp.RoundToOdd, up}, // 1.0 even, next odd
		{-tiny, fp.RoundNearestEven, one},
		{-tiny, fp.RoundTowardZero, down},
		{-tiny, fp.RoundTowardPositive, one},
		{-tiny, fp.RoundTowardNegative, down},
		{-tiny, fp.RoundToOdd, down}, // below 1: mantissa all ones, odd
	}
	for _, c := range cases {
		if got := o.Result(c.x, out, c.mode); got != c.want {
			t.Errorf("exp(%g) %v: got %#x want %#x", c.x, c.mode, got, c.want)
		}
		// Must agree with the reference too.
		if want := bigmath.CorrectlyRounded(bigmath.Exp, c.x, out, c.mode); want != c.want {
			t.Errorf("reference disagrees for exp(%g) %v: %#x vs %#x", c.x, c.mode, want, c.want)
		}
	}
}

// sinh's anchor is the input itself: exercise it near the subnormal floor
// where the neighbour arithmetic touches zero.
func TestSinhAnchorSubnormals(t *testing.T) {
	out := fp.Bfloat16
	x := out.MinSubnormalValue()
	o := New(bigmath.Sinh)
	for _, mode := range fp.AllModes {
		got := o.Result(x, out, mode)
		want := bigmath.CorrectlyRounded(bigmath.Sinh, x, out, mode)
		if got != want {
			t.Errorf("sinh(minSub) %v: got %#x want %#x", mode, got, want)
		}
	}
	if o.Stats().Anchors == 0 {
		t.Error("anchor path did not fire for sinh(minSub)")
	}
}

// Concurrent queries against one shared oracle: under -race this covers the
// striped caches and the atomic stats counters; in any mode it checks that
// concurrent answers match the serial reference and that no query is lost
// from the counters.
func TestConcurrentResultRaceFree(t *testing.T) {
	in := fp.MustFormat(11, 8)
	out := in.Extend(2)
	for _, fn := range []bigmath.Func{bigmath.Ln, bigmath.SinPi, bigmath.Exp} {
		o := New(fn)
		const workers = 4
		nvals := in.NumValues()
		got := make([]uint64, nvals)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for b := uint64(w); b < nvals; b += workers {
					got[b] = o.Result(in.Decode(b), out, fp.RoundToOdd)
				}
			}(w)
		}
		wg.Wait()
		ref := New(fn)
		for b := uint64(0); b < nvals; b++ {
			if want := ref.Result(in.Decode(b), out, fp.RoundToOdd); got[b] != want {
				t.Fatalf("%v: concurrent result for bits %#x = %#x, serial %#x", fn, b, got[b], want)
			}
		}
		if s := o.Stats(); s.Total() != nvals {
			t.Errorf("%v: stats total %d != %d queries", fn, s.Total(), nvals)
		}
	}
}

// BenchmarkOracleResult times one query per iteration for each function,
// over the tensorfloat32 inputs in a fixed odd stride, at the round-to-odd
// F21 target a certification pass asks for.
func BenchmarkOracleResult(b *testing.B) {
	in := fp.TensorFloat32
	out := in.Extend(2)
	const stride = 0x9e37 // odd: visits every input once per cycle
	for _, fn := range bigmath.AllFuncs {
		b.Run(fn.String(), func(b *testing.B) {
			o := New(fn)
			bits := uint64(0)
			for i := 0; i < b.N; i++ {
				o.Result(in.Decode(bits), out, fp.RoundToOdd)
				bits = (bits + stride) & (in.NumValues() - 1)
			}
		})
	}
}
