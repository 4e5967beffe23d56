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

// fastPathBoundaries returns the positive edge values of the normal-range
// fast path of Round for f: both ends of its exponent guard, the overflow
// threshold, midpoints with each kept-lsb parity and all-ones mantissas
// whose rounding carries into the next binade.
func fastPathBoundaries(f Format) []float64 {
	p := f.MantBits()
	minNormal := math.Ldexp(1, f.EMin())
	maxFinite := f.MaxFiniteValue()
	halfUlpMax := math.Ldexp(1, f.EMax()-p-1)
	top := math.Ldexp(1, f.EMax()+1)
	up := func(v float64) float64 { return math.Nextafter(v, math.Inf(1)) }
	down := func(v float64) float64 { return math.Nextafter(v, 0) }
	vs := []float64{
		minNormal, down(minNormal), up(minNormal),
		f.Decode(f.mantMask()), // largest target subnormal
		maxFinite, down(maxFinite), up(maxFinite),
		top, down(top), // 2^(EMax+1)·(1-2^-53) and the first binade past the range
	}
	for _, v := range []float64{maxFinite - halfUlpMax, maxFinite + halfUlpMax} {
		vs = append(vs, v, down(v), up(v))
	}
	for _, e := range []int{f.EMin(), 0, f.EMax()} {
		unit := math.Ldexp(1, e-p) // one target ulp in binade 2^e
		vs = append(vs,
			math.Ldexp(1, e)+unit/2,   // midpoint, even kept lsb
			math.Ldexp(1, e)+3*unit/2, // midpoint, odd kept lsb
			math.Ldexp(2, e)-unit/2,   // midpoint below 2^(e+1): all-ones kept bits
			down(math.Ldexp(2, e)),    // all-ones double mantissa
		)
	}
	return vs
}

// TestRoundFastPathBoundaries checks Round against the exact FromBig at the
// edges of the fast path, for every format × mode and both signs.
func TestRoundFastPathBoundaries(t *testing.T) {
	for _, f := range rounderFormats {
		vs := fastPathBoundaries(f)
		for _, m := range AllModes {
			r := NewRounder(f, m)
			for _, v := range vs {
				for _, x := range []float64{v, -v} {
					want := f.FromBig(new(big.Float).SetFloat64(x), m)
					if got := r.Round(x); got != want {
						t.Errorf("%v/%v: Round(%x) = %#x, FromBig = %#x", f, m, x, got, want)
					}
				}
			}
		}
	}
}

// FuzzRound checks Round against the exact FromBig for arbitrary float64
// bits, any format NewFormat accepts and every mode. The seeds under
// testdata/fuzz/FuzzRound sit on the fast path's boundaries.
func FuzzRound(f *testing.F) {
	f.Fuzz(func(t *testing.T, in uint64, width, expBits, modeIdx uint8) {
		out, err := NewFormat(int(width), int(expBits))
		if err != nil {
			t.Skip(err)
		}
		m := AllModes[int(modeIdx)%len(AllModes)]
		v := math.Float64frombits(in)
		want := out.NaN()
		if !math.IsNaN(v) {
			want = out.FromBig(new(big.Float).SetFloat64(v), m)
		}
		r := NewRounder(out, m)
		if got := r.Round(v); got != want {
			t.Fatalf("%v/%v: Round(%x) = %#x, FromBig = %#x", out, m, v, got, want)
		}
	})
}

// BenchmarkRound reports ns/value of Round over two fixed-seed corpora:
// normal-range values, which take the bit-level fast path, and a slow-path
// mix of target subnormals, overflows and specials.
func BenchmarkRound(b *testing.B) {
	f22 := MustFormat(22, 8)
	type cell struct {
		name string
		f    Format
		m    Mode
	}
	cells := []cell{{"bf16", Bfloat16, RoundNearestEven}, {"tf32", TensorFloat32, RoundNearestEven}}
	for _, m := range StandardModes {
		cells = append(cells, cell{"f22", f22, m})
	}
	const n = 4096
	corpora := []struct {
		name string
		gen  func(f Format, rng *rand.Rand) float64
	}{
		{"normal", func(f Format, rng *rand.Rand) float64 {
			return math.Ldexp(1+rng.Float64(), f.EMin()+rng.Intn(f.EMax()-f.EMin()+1))
		}},
		{"slow", func(f Format, rng *rand.Rand) float64 {
			switch rng.Intn(4) {
			case 0: // target subnormal
				return math.Ldexp(1+rng.Float64(), f.EMin()-f.MantBits()-1+rng.Intn(f.MantBits()+1))
			case 1: // overflow
				return math.Ldexp(1+rng.Float64(), f.EMax()+1+rng.Intn(8))
			case 2: // double subnormal or zero
				return math.Float64frombits(rng.Uint64() & f64FracMask)
			default: // ±∞ or NaN
				return math.Float64frombits(uint64(f64ExpMask)<<f64FracBits | rng.Uint64()&1)
			}
		}},
	}
	for _, corpus := range corpora {
		for _, c := range cells {
			rng := rand.New(rand.NewSource(23))
			vs := make([]float64, n)
			for i := range vs {
				vs[i] = corpus.gen(c.f, rng)
				if rng.Intn(2) == 0 {
					vs[i] = -vs[i]
				}
			}
			r := NewRounder(c.f, c.m)
			b.Run(corpus.name+"/"+c.name+"/"+c.m.String(), func(b *testing.B) {
				var sink uint64
				for i := 0; i < b.N; i++ {
					for _, v := range vs {
						sink += r.Round(v)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/value")
				_ = sink
			})
		}
	}
}
