package fp

import (
	"math"
	"math/big"
	"math/rand"
	"testing"
)

// rounderFormats covers the level ladder, the widest supported mantissas and
// a non-8-bit exponent field.
var rounderFormats = []Format{
	MustFormat(10, 8), Bfloat16, TensorFloat32, MustFormat(22, 8),
	Float32, MustFormat(34, 8), Float16, MustFormat(12, 4),
}

// rounderCorpus returns values that exercise every branch of the rounding:
// specials, signed zeros, exact values of the target, halfway points,
// subnormal-range and overflow-range magnitudes, plus random doubles.
func rounderCorpus(f Format, rng *rand.Rand) []float64 {
	vs := []float64{
		0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
		1, -1, math.MaxFloat64, -math.MaxFloat64,
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		f.MaxFiniteValue(), -f.MaxFiniteValue(),
		f.MaxFiniteValue() * 2, f.MinSubnormalValue() / 2,
		f.MinSubnormalValue() * 1.5, -f.MinSubnormalValue() * 0.25,
	}
	// Every value of a small format plus its neighbours and midpoints.
	small := MustFormat(10, 8)
	for b := uint64(0); b < small.NumValues(); b++ {
		v := small.Decode(b)
		if math.IsNaN(v) || math.IsInf(v, 0) {
			continue
		}
		vs = append(vs, v, math.Nextafter(v, math.Inf(1)), v*(1+math.Ldexp(1, -30)))
	}
	for i := 0; i < 20000; i++ {
		vs = append(vs, math.Ldexp(rng.Float64()*2-1, rng.Intn(600)-300))
	}
	return vs
}

// TestRounderMatchesFromFloat64 pins the Rounder contract: bit-identical to
// Format.FromFloat64 for every format × mode over a branch-covering corpus.
func TestRounderMatchesFromFloat64(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, f := range rounderFormats {
		corpus := rounderCorpus(f, rng)
		for _, m := range AllModes {
			r := NewRounder(f, m)
			if r.Format() != f || r.Mode() != m {
				t.Fatalf("%v/%v: accessor mismatch", f, m)
			}
			for _, v := range corpus {
				if got, want := r.Round(v), f.FromFloat64(v, m); got != want {
					t.Fatalf("%v/%v: Round(%x) = %#x, FromFloat64 = %#x", f, m, v, got, want)
				}
			}
		}
	}
}

// TestRounderZeroAllocs pins the batch-rounding hot path allocation-free.
func TestRounderZeroAllocs(t *testing.T) {
	r := NewRounder(Bfloat16, RoundNearestEven)
	vs := []float64{1.5, -0.375, math.Pi, 1e30, 1e-30, math.NaN()}
	if n := testing.AllocsPerRun(100, func() {
		for _, v := range vs {
			_ = r.Round(v)
		}
	}); n != 0 {
		t.Fatalf("Round allocates %v times per run", n)
	}
}

// TestRoundMatchesFromBig checks the loop-free rounding core against an
// independent reference, the exact big.Float path of FromBig, for every
// format × mode (round-to-odd included). Beyond rounderCorpus, each format
// gets 2^17 values drawn half as raw bit patterns (every exponent, NaN and
// ∞ included) and half as normals near the format's range with random low
// mantissa bits cleared, which lands on exact values and halfway points.
func TestRoundMatchesFromBig(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, f := range rounderFormats {
		corpus := rounderCorpus(f, rng)
		for i := 0; i < 1<<16; i++ {
			corpus = append(corpus, math.Float64frombits(rng.Uint64()))
			e := f.EMin() - f.MantBits() - 3 + rng.Intn(f.EMax()-f.EMin()+f.MantBits()+6)
			v := math.Ldexp(1+rng.Float64(), e)
			b := math.Float64bits(v) &^ (1<<uint(rng.Intn(53)) - 1)
			if rng.Intn(2) == 0 {
				b |= 1 << 63
			}
			corpus = append(corpus, math.Float64frombits(b))
		}
		xs := make([]*big.Float, len(corpus))
		for i, v := range corpus {
			if !math.IsNaN(v) {
				xs[i] = new(big.Float).SetFloat64(v)
			}
		}
		for _, m := range AllModes {
			r := NewRounder(f, m)
			for i, v := range corpus {
				want := f.NaN()
				if xs[i] != nil {
					want = f.FromBig(xs[i], m)
				}
				if got := r.Round(v); got != want {
					t.Fatalf("%v/%v: Round(%x) = %#x, FromBig = %#x", f, m, v, got, want)
				}
			}
		}
	}
}
