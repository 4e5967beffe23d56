package bigmath

import (
	"math"
	"math/big"
	"math/rand"
	"testing"

	"repro/internal/fp"
)

func TestConstants(t *testing.T) {
	check := func(name string, got *big.Float, want float64) {
		t.Helper()
		g, _ := got.Float64()
		if g != want {
			t.Errorf("%s = %v, want %v", name, g, want)
		}
	}
	check("ln2", Ln2(200), math.Ln2)
	check("ln10", Ln10(200), math.Log(10))
	check("pi", Pi(200), math.Pi)
	check("sqrt2/2", Sqrt2Over2(200), math.Sqrt2/2)
	// Higher-precision spot check of π against a known 50-digit value.
	want, _, err := big.ParseFloat(
		"3.14159265358979323846264338327950288419716939937510582097", 10, 160, big.ToNearestEven)
	if err != nil {
		t.Fatal(err)
	}
	diff := new(big.Float).Sub(Pi(160), want)
	if diff.Sign() != 0 && diff.MantExp(nil) > -150 {
		t.Errorf("π at 160 bits differs: %v", diff)
	}
}

func TestParseFunc(t *testing.T) {
	for _, f := range AllFuncs {
		got, err := ParseFunc(f.String())
		if err != nil || got != f {
			t.Errorf("ParseFunc(%q) = %v, %v", f.String(), got, err)
		}
	}
	if _, err := ParseFunc("tan"); err == nil {
		t.Error("ParseFunc(tan) succeeded")
	}
}

// ulpsApart returns the distance in double ulps between two doubles of the
// same sign.
func ulpsApart(a, b float64) int64 {
	ia, ib := int64(math.Float64bits(a)), int64(math.Float64bits(b))
	d := ia - ib
	if d < 0 {
		d = -d
	}
	return d
}

// Eval at 80 bits must agree with the math package to within a few double
// ulps everywhere the math package is trustworthy.
func TestEvalAgreesWithMathPackage(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	type gen func() float64
	logInputs := func() float64 { return math.Ldexp(rng.Float64()+0.5, rng.Intn(250)-125) }
	expInputs := func() float64 { return (rng.Float64()*2 - 1) * 80 }
	exp10Inputs := func() float64 { return (rng.Float64()*2 - 1) * 30 }
	trigInputs := func() float64 { return (rng.Float64()*2 - 1) * 100 }
	cases := []struct {
		f       Func
		in      gen
		ref     func(float64) float64
		maxUlps int64
	}{
		{Ln, logInputs, math.Log, 8},
		{Log2, logInputs, math.Log2, 8},
		{Log10, logInputs, math.Log10, 8},
		{Exp, expInputs, math.Exp, 8},
		{Exp2, expInputs, math.Exp2, 8},
		{Exp10, exp10Inputs, func(x float64) float64 { return math.Pow(10, x) }, 8},
		{Sinh, expInputs, math.Sinh, 8},
		{Cosh, expInputs, math.Cosh, 8},
		// The π-based references are weak: the π·z multiply alone costs
		// |πz|·2^-53 absolute, tens of ulps after sin/cos near their zeros.
		{SinPi, trigInputs, func(x float64) float64 { return math.Sin(math.Pi * math.Mod(x, 2)) }, 512},
		{CosPi, trigInputs, func(x float64) float64 { return math.Cos(math.Pi * math.Mod(x, 2)) }, 512},
	}
	for _, c := range cases {
		for i := 0; i < 400; i++ {
			x := c.in()
			want := c.ref(x)
			if want == 0 || math.IsInf(want, 0) || math.Abs(want) < 1e-300 {
				continue
			}
			if (c.f == SinPi || c.f == CosPi) && math.Abs(want) < 0.01 {
				continue // reference's absolute error swamps tiny results
			}
			got, _ := Eval(c.f, x, 80).Float64()
			if ulpsApart(got, want) > c.maxUlps {
				t.Errorf("%v(%g): big=%g math=%g (%d ulps)", c.f, x, got, want, ulpsApart(got, want))
			}
		}
	}
}

// High-precision identity checks, independent of the math package.
func TestIdentities(t *testing.T) {
	const prec = 200
	rng := rand.New(rand.NewSource(11))
	tol := func(a, b *big.Float, bits int) bool {
		d := new(big.Float).SetPrec(prec).Sub(a, b)
		if d.Sign() == 0 {
			return true
		}
		return d.MantExp(nil)-a.MantExp(nil) < -bits
	}
	for i := 0; i < 60; i++ {
		x := rng.Float64()*20 + 0.01
		// exp(ln x) = x
		l := Eval(Ln, x, prec+40)
		lf, _ := l.Float64()
		_ = lf
		el := expBig(l, prec)
		if !tol(el, big.NewFloat(x), prec-20) {
			t.Errorf("exp(ln %g) off: %v", x, el)
		}
		// log2 = ln/ln2
		l2 := Eval(Log2, x, prec)
		viaLn := new(big.Float).SetPrec(prec).Quo(Eval(Ln, x, prec+20), Ln2(prec+20))
		if !tol(l2, viaLn, prec-20) {
			t.Errorf("log2(%g) inconsistent with ln", x)
		}
		// cosh² − sinh² = 1
		y := rng.Float64()*8 - 4
		if math.Abs(y) < 0.01 {
			continue
		}
		s := Eval(Sinh, y, prec)
		c := Eval(Cosh, y, prec)
		s2 := new(big.Float).SetPrec(prec).Mul(s, s)
		c2 := new(big.Float).SetPrec(prec).Mul(c, c)
		diff := c2.Sub(c2, s2)
		if !tol(diff, big.NewFloat(1), prec-40) {
			t.Errorf("cosh²−sinh² at %g = %v", y, diff)
		}
		// sinpi² + cospi² = 1
		z := rng.Float64()*100 - 50
		sp := Eval(SinPi, z, prec)
		cp := Eval(CosPi, z, prec)
		sum := new(big.Float).SetPrec(prec).Mul(sp, sp)
		cp2 := new(big.Float).SetPrec(prec).Mul(cp, cp)
		sum.Add(sum, cp2)
		if !tol(sum, big.NewFloat(1), prec-40) {
			t.Errorf("sin²+cos² at πz, z=%g: %v", z, sum)
		}
	}
}

func TestExactValue(t *testing.T) {
	type tc struct {
		f    Func
		x    float64
		want float64 // NaN means "not exact"
	}
	none := math.NaN()
	cases := []tc{
		{Ln, 1, 0}, {Ln, 2, none}, {Ln, math.E, none},
		{Log2, 8, 3}, {Log2, 0.25, -2}, {Log2, 1, 0}, {Log2, 3, none},
		{Log10, 1, 0}, {Log10, 100, 2}, {Log10, 0.1, none}, {Log10, 99, none},
		{Log10, 1e22, 22}, {Log10, math.Nextafter(1e22, 2e22), none},
		{Log10, 1e23, none}, {Log10, 1e30, none}, // not exact powers of ten
		{Exp, 0, 1}, {Exp, 1, none},
		{Exp2, 5, 32}, {Exp2, -3, 0.125}, {Exp2, 0.5, none},
		{Exp10, 2, 100}, {Exp10, 0, 1}, {Exp10, -1, none}, {Exp10, 1.5, none},
		{Sinh, 0, 0}, {Sinh, 1, none},
		{Cosh, 0, 1}, {Cosh, 2, none},
		{SinPi, 3, 0}, {SinPi, 0.5, 1}, {SinPi, 1.5, -1}, {SinPi, -0.5, -1},
		{SinPi, 2.5, 1}, {SinPi, -2.5, -1}, {SinPi, 0.25, none},
		{CosPi, 0, 1}, {CosPi, 1, -1}, {CosPi, 2, 1}, {CosPi, 0.5, 0},
		{CosPi, -1.5, 0}, {CosPi, 0.75, none},
	}
	for _, c := range cases {
		v, ok := ExactValue(c.f, c.x)
		if math.IsNaN(c.want) {
			if ok {
				t.Errorf("%v(%g) unexpectedly exact: %v", c.f, c.x, v)
			}
			continue
		}
		if !ok {
			t.Errorf("%v(%g) should be exact", c.f, c.x)
			continue
		}
		got, _ := v.Float64()
		if got != c.want {
			t.Errorf("%v(%g) = %v, want %v", c.f, c.x, got, c.want)
		}
	}
	// Sign conventions for exact zeros.
	if v, ok := ExactValue(SinPi, -4); !ok || !v.Signbit() {
		t.Error("sinpi(-4) should be -0")
	}
	if v, ok := ExactValue(SinPi, 4); !ok || v.Signbit() {
		t.Error("sinpi(4) should be +0")
	}
	if v, ok := ExactValue(Sinh, math.Copysign(0, -1)); !ok || !v.Signbit() {
		t.Error("sinh(-0) should be -0")
	}
	// Huge exact exp2: 2^200 does not fit a double but must round to +Inf
	// in bfloat16 under rn and to maxFinite under rz.
	v, ok := ExactValue(Exp2, 200)
	if !ok {
		t.Fatal("exp2(200) should be exact")
	}
	if got := fp.Bfloat16.FromBig(v, fp.RoundNearestEven); got != fp.Bfloat16.Inf(false) {
		t.Errorf("2^200 rn: %#x", got)
	}
	if got := fp.Bfloat16.FromBig(v, fp.RoundTowardZero); got != fp.Bfloat16.MaxFinite() {
		t.Errorf("2^200 rz: %#x", got)
	}
}

func TestSpecialBits(t *testing.T) {
	f := fp.Bfloat16
	inf, ninf := math.Inf(1), math.Inf(-1)
	type tc struct {
		fn   Func
		x    float64
		want uint64
	}
	cases := []tc{
		{Ln, 0, f.Inf(true)}, {Ln, math.Copysign(0, -1), f.Inf(true)},
		{Ln, -2, f.NaN()}, {Ln, inf, f.Inf(false)},
		{Log2, -0.5, f.NaN()}, {Log10, 0, f.Inf(true)},
		{Exp, inf, f.Inf(false)}, {Exp, ninf, f.Zero(false)},
		{Exp2, ninf, f.Zero(false)}, {Exp10, inf, f.Inf(false)},
		{Sinh, inf, f.Inf(false)}, {Sinh, ninf, f.Inf(true)},
		{Sinh, math.Copysign(0, -1), f.Zero(true)}, {Sinh, 0, f.Zero(false)},
		{Cosh, ninf, f.Inf(false)},
		{SinPi, inf, f.NaN()}, {SinPi, math.Copysign(0, -1), f.Zero(true)},
		{CosPi, ninf, f.NaN()},
		{Exp, math.NaN(), f.NaN()},
	}
	for _, c := range cases {
		got, ok := SpecialBits(c.fn, c.x, f)
		if !ok {
			t.Errorf("%v(%g) not special", c.fn, c.x)
			continue
		}
		if got != c.want {
			t.Errorf("%v(%g) = %#x, want %#x", c.fn, c.x, got, c.want)
		}
	}
	// Ordinary inputs are not special.
	for _, fn := range AllFuncs {
		if _, ok := SpecialBits(fn, 1.5, f); ok {
			t.Errorf("%v(1.5) flagged special", fn)
		}
	}
}

// Correct rounding into bfloat16 must agree with rounding the math
// package's double result: the bf16 rounding boundaries are ~2^45 double
// ulps apart, so a ≤2-ulp double library can never disagree.
func TestCorrectlyRoundedBfloat16VsMath(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, f := range AllFuncs {
		for i := 0; i < 300; i++ {
			var x float64
			switch f {
			case Ln, Log2, Log10:
				x = math.Ldexp(rng.Float64()+0.5, rng.Intn(200)-100)
			case Exp, Exp2, Exp10, Sinh, Cosh:
				x = (rng.Float64()*2 - 1) * 30
			default:
				x = (rng.Float64()*2 - 1) * 50
			}
			// Use an exactly-bf16 input so the comparison is meaningful
			// end to end.
			xb := fp.Bfloat16.FromFloat64(x, fp.RoundNearestEven)
			x = fp.Bfloat16.Decode(xb)
			if math.IsNaN(x) || math.IsInf(x, 0) || x == 0 {
				continue
			}
			if f == SinPi || f == CosPi {
				if _, exact := ExactValue(f, x); exact {
					continue // ±0/±1 results: sign conventions differ from math.Sin(Pi*x)
				}
			}
			want := fp.Bfloat16.FromFloat64(f.Float64(x), fp.RoundNearestEven)
			got := CorrectlyRounded(f, x, fp.Bfloat16, fp.RoundNearestEven)
			if got != want && !fp.Bfloat16.IsNaN(want) {
				t.Errorf("%v(%g): got %#x want %#x", f, x, got, want)
			}
		}
	}
}

func TestCorrectlyRoundedSpecialPipeline(t *testing.T) {
	// End-to-end: specials, exacts and saturation all flow through
	// CorrectlyRounded.
	f := fp.TensorFloat32
	if got := CorrectlyRounded(Exp, 5000, f, fp.RoundNearestEven); got != f.Inf(false) {
		t.Errorf("exp(5000) = %#x", got)
	}
	if got := CorrectlyRounded(Exp, 5000, f, fp.RoundTowardZero); got != f.MaxFinite() {
		t.Errorf("exp(5000) rz = %#x", got)
	}
	if got := CorrectlyRounded(Exp, -5000, f, fp.RoundNearestEven); got != f.Zero(false) {
		t.Errorf("exp(-5000) = %#x", got)
	}
	if got := CorrectlyRounded(Exp, -5000, f, fp.RoundToOdd); got != f.MinSubnormal() {
		t.Errorf("exp(-5000) ro = %#x", got)
	}
	if got := CorrectlyRounded(Sinh, -5000, f, fp.RoundNearestEven); got != f.Inf(true) {
		t.Errorf("sinh(-5000) = %#x", got)
	}
	if got := CorrectlyRounded(Cosh, -5000, f, fp.RoundNearestEven); got != f.Inf(false) {
		t.Errorf("cosh(-5000) = %#x", got)
	}
	if got := CorrectlyRounded(Log2, 1024, f, fp.RoundNearestEven); f.Decode(got) != 10 {
		t.Errorf("log2(1024) = %v", f.Decode(got))
	}
}

// The Ziv loop must produce identical rounded results regardless of where
// the start precision lands.
func TestZivConsistency(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	f27 := fp.MustFormat(27, 8)
	for i := 0; i < 200; i++ {
		x := math.Ldexp(rng.Float64()+0.5, rng.Intn(40)-20)
		for _, fn := range []Func{Ln, Exp, SinPi} {
			a := CorrectlyRounded(fn, x, f27, fp.RoundToOdd)
			// Recompute from a much higher fixed precision.
			y := Eval(fn, x, 400)
			b := f27.FromBig(y, fp.RoundToOdd)
			if a != b {
				t.Errorf("%v(%g): ziv %#x, prec400 %#x", fn, x, a, b)
			}
		}
	}
}

func BenchmarkOracle(b *testing.B) {
	f27 := fp.MustFormat(27, 8)
	funcs := []Func{Ln, Log2, Exp, Exp2, Sinh, SinPi}
	for _, fn := range funcs {
		b.Run(fn.String(), func(b *testing.B) {
			rng := rand.New(rand.NewSource(14))
			for i := 0; i < b.N; i++ {
				x := rng.Float64()*3 + 0.1
				CorrectlyRounded(fn, x, f27, fp.RoundToOdd)
			}
		})
	}
}
