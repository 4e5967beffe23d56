package reduction

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/bigmath"
	"repro/internal/fp"
)

// bitLevelCorpus returns 2^20 random bit patterns followed by every value of
// F(22,8), the widest committed level.
func bitLevelCorpus(rng *rand.Rand) []float64 {
	f := fp.MustFormat(22, 8)
	vs := make([]float64, 0, 1<<20+int(f.NumValues()))
	for i := 0; i < 1<<20; i++ {
		vs = append(vs, math.Float64frombits(rng.Uint64()))
	}
	for b := uint64(0); b < f.NumValues(); b++ {
		vs = append(vs, f.Decode(b))
	}
	return vs
}

// sameFloat reports bit equality, counting any two NaNs as equal (a
// multiplication quiets a signaling NaN that math.Ldexp returns as is).
func sameFloat(a, b float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return math.IsNaN(a) && math.IsNaN(b)
	}
	return math.Float64bits(a) == math.Float64bits(b)
}

// foldMod is fold as written with math.Mod, the reference the loop-free
// fold must reproduce.
func foldMod(x float64) (w, ssign, csign float64) {
	z := math.Mod(math.Abs(x), 2)
	ssign, csign = 1, 1
	w = z
	if w > 1 {
		w = z - 1
		ssign, csign = -1, -1
	}
	if w > 0.5 {
		w = 1 - w
		csign = -csign
	}
	if math.Signbit(x) {
		ssign = -ssign
	}
	return w, ssign, csign
}

// TestBitLevelMatchesLibrary pins the bit-level reduction helpers to the
// math library calls they replace: logSplit to math.Frexp, scale to
// math.Ldexp over e ∈ [-1100, 1100] (subnormal results and overflow
// included) and fold to the math.Mod formulation.
func TestBitLevelMatchesLibrary(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	corpus := bitLevelCorpus(rng)
	const eSpan = 1100
	for i, x := range corpus {
		if a := math.Abs(x); a > 0 && !math.IsInf(a, 0) && !math.IsNaN(a) {
			m, e := logSplit(a)
			frac, exp := math.Frexp(a)
			if math.Float64bits(m) != math.Float64bits(2*frac) || e != exp-1 {
				t.Fatalf("logSplit(%x) = (%x, %d), Frexp gives (%x, %d)", a, m, e, 2*frac, exp-1)
			}
			w, ss, cs := fold(x)
			ww, wss, wcs := foldMod(x)
			if !sameFloat(w, ww) || ss != wss || cs != wcs {
				t.Fatalf("fold(%x) = (%x, %v, %v), Mod version (%x, %v, %v)", x, w, ss, cs, ww, wss, wcs)
			}
		}
		e := rng.Intn(2*eSpan+1) - eSpan
		if got, want := scale(x, e), math.Ldexp(x, e); !sameFloat(got, want) {
			t.Fatalf("scale(%x, %d) = %x, Ldexp = %x", x, e, got, want)
		}
		// Every exponent for a sparse subset.
		if i%4096 == 0 {
			for e := -eSpan; e <= eSpan; e++ {
				if got, want := scale(x, e), math.Ldexp(x, e); !sameFloat(got, want) {
					t.Fatalf("scale(%x, %d) = %x, Ldexp = %x", x, e, got, want)
				}
			}
		}
	}
}

// TestSinCosPiExactMatchesBigmath pins the float64 exact values of the
// sinpi/cospi special path to bigmath.ExactValue, bit for bit (sign of zero
// included), on every multiple of ½ in [-64, 64], on both signs of every
// power of two up to 2^1023 and of the odd integers and half-integers next
// to the large ones, and on every 2x-integral value of F(22,8).
func TestSinCosPiExactMatchesBigmath(t *testing.T) {
	var xs []float64
	for k := -128; k <= 128; k++ {
		xs = append(xs, float64(k)/2)
	}
	xs = append(xs, math.Copysign(0, -1), math.MaxFloat64, -math.MaxFloat64)
	for e := 0; e <= 1023; e++ {
		p := math.Ldexp(1, e)
		for _, v := range []float64{p, p + 0.5, p + 1, p - 0.5, p + 2} {
			xs = append(xs, v, -v)
		}
	}
	f := fp.MustFormat(22, 8)
	for b := uint64(0); b < f.NumValues(); b++ {
		xs = append(xs, f.Decode(b))
	}
	for _, fn := range []bigmath.Func{bigmath.SinPi, bigmath.CosPi} {
		s := SinCosPiScheme{fn: fn}
		for _, x := range xs {
			v, ok := bigmath.ExactValue(fn, x)
			if !ok {
				continue
			}
			want, _ := v.Float64()
			if v.Signbit() {
				want = math.Copysign(want, -1)
			}
			if got := s.Special(x); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%v(%x): special %x, ExactValue %x", fn, x, got, want)
			}
		}
	}
}
