package fp

import (
	"math"
	"math/big"
	"math/rand"
	"testing"
)

// refFromSum rounds hi+lo exactly via big.Float.
func refFromSum(f Format, hi, lo float64, m Mode) uint64 {
	v := new(big.Float).SetPrec(2200).SetFloat64(hi)
	v.Add(v, new(big.Float).SetFloat64(lo))
	return f.FromBig(v, m)
}

func TestFromSumMatchesBigRandom(t *testing.T) {
	formats := []Format{Bfloat16, TensorFloat32, MustFormat(22, 8), MustFormat(24, 8), MustFormat(49, 10)}
	rng := rand.New(rand.NewSource(90))
	for _, f := range formats {
		for trial := 0; trial < 60000; trial++ {
			hi := math.Ldexp(rng.Float64()+0.5, rng.Intn(300)-150)
			if rng.Intn(2) == 0 {
				hi = -hi
			}
			ulp := math.Abs(math.Nextafter(hi, math.Inf(1)) - hi)
			lo := (rng.Float64() - 0.5) * ulp
			if math.Abs(lo) > math.Abs(hi)/4 {
				continue
			}
			for _, m := range AllModes {
				got := f.FromSum(hi, lo, m)
				want := refFromSum(f, hi, lo, m)
				if got != want {
					t.Fatalf("%v FromSum(%x, %x, %v) = %#x want %#x",
						f, hi, lo, m, got, want)
				}
			}
		}
	}
}

// FromSum must equal FromBig on the exact sum over its whole documented
// contract |lo| ≤ |hi|/4 — including sums that leave hi's binade, up or
// down — in every mode and several formats. The two witnesses misrounded
// when the quantum was taken from hi's binade.
func TestFromSumMatchesFromBig(t *testing.T) {
	for _, w := range []struct {
		hi, lo float64
		m      Mode
		want   uint64
	}{
		{1.99, 0.49, RoundNearestEven, 0x401f},
		{1.99, 0.49, RoundNearestAway, 0x401f},
		{1.99, 0.49, RoundToOdd, 0x401f},
		{1.9, 0.4, RoundTowardPositive, 0x4014},
	} {
		if got := Bfloat16.FromSum(w.hi, w.lo, w.m); got != w.want {
			t.Errorf("bfloat16 FromSum(%v, %v, %v) = %#x, want %#x", w.hi, w.lo, w.m, got, w.want)
		}
	}
	formats := []Format{Bfloat16, TensorFloat32, MustFormat(22, 8), MustFormat(49, 10), MustFormat(60, 8)}
	rng := rand.New(rand.NewSource(93))
	for _, f := range formats {
		for trial := 0; trial < 30000; trial++ {
			hi := math.Ldexp(rng.Float64()+0.5, rng.Intn(300)-150)
			if rng.Intn(2) == 0 {
				hi = -hi
			}
			var lo float64
			switch trial % 4 {
			case 0: // the contract's edge
				lo = hi / 4
			case 1:
				lo = -hi / 4
			default: // any ratio in [-1/4, 1/4], at any scale below it
				lo = math.Ldexp(hi*(rng.Float64()-0.5)/2, -rng.Intn(80))
			}
			for _, m := range AllModes {
				if got, want := f.FromSum(hi, lo, m), refFromSum(f, hi, lo, m); got != want {
					t.Fatalf("%v FromSum(%x, %x, %v) = %#x want %#x", f, hi, lo, m, got, want)
				}
			}
		}
	}
}

// Adversarial structure: hi exactly on format boundaries (representable
// values, midpoints, powers of two) with tiny lo of both signs — the cases
// where the residual decides the rounding.
func TestFromSumBoundaries(t *testing.T) {
	f := MustFormat(20, 8)
	rng := rand.New(rand.NewSource(91))
	for trial := 0; trial < 40000; trial++ {
		bitsv := uint64(rng.Int63()) & (f.NumValues() - 1)
		if !f.IsFinite(bitsv) || f.IsZero(bitsv) {
			continue
		}
		v := f.Decode(bitsv)
		var hi float64
		switch trial % 3 {
		case 0:
			hi = v // exactly representable
		case 1: // midpoint to the next value
			nb := f.NextUp(bitsv)
			if !f.IsFinite(nb) {
				continue
			}
			hi = v + (f.Decode(nb)-v)/2
		default: // power of two
			hi = math.Ldexp(1, rng.Intn(200)-100)
			if rng.Intn(2) == 0 {
				hi = -hi
			}
		}
		if hi == 0 || math.IsInf(hi, 0) {
			continue
		}
		mag := math.Abs(hi)
		los := []float64{
			mag * 1e-17, -mag * 1e-17,
			mag * math.Ldexp(1, -40), -mag * math.Ldexp(1, -40),
			math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
			0,
		}
		for _, lo := range los {
			for _, m := range AllModes {
				got := f.FromSum(hi, lo, m)
				want := refFromSum(f, hi, lo, m)
				if got != want {
					t.Fatalf("FromSum(%x, %x, %v) = %#x want %#x", hi, lo, m, got, want)
				}
			}
		}
	}
}

// Range edges: overflow, underflow, subnormal results.
func TestFromSumRangeEdges(t *testing.T) {
	f := Bfloat16
	cases := []struct{ hi, lo float64 }{
		{f.MaxFiniteValue(), f.MaxFiniteValue() * 1e-17},
		{f.MaxFiniteValue() * 1.01, -f.MaxFiniteValue() * 1e-16},
		{f.MinSubnormalValue(), -f.MinSubnormalValue() * 1e-18},
		{f.MinSubnormalValue() / 4, f.MinSubnormalValue() * 1e-19},
		{math.Ldexp(1, 300), math.Ldexp(1, 240)},
		{math.Ldexp(1, -300), -math.Ldexp(1, -360)},
		{-math.Ldexp(1.5, 100), math.Ldexp(1, 60)},
	}
	for _, c := range cases {
		for _, m := range AllModes {
			got := f.FromSum(c.hi, c.lo, m)
			want := refFromSum(f, c.hi, c.lo, m)
			if got != want {
				t.Errorf("FromSum(%x, %x, %v) = %#x want %#x", c.hi, c.lo, m, got, want)
			}
		}
	}
	// Degenerate arguments defer to FromFloat64.
	if f.FromSum(0, 0, RoundNearestEven) != f.Zero(false) {
		t.Error("zero hi")
	}
	if f.FromSum(math.Inf(1), 1, RoundNearestEven) != f.Inf(false) {
		t.Error("inf hi")
	}
	if f.FromSum(1.5, 0, RoundNearestEven) != f.FromFloat64(1.5, RoundNearestEven) {
		t.Error("zero lo")
	}
}

func BenchmarkFromSum(b *testing.B) {
	f := MustFormat(49, 10)
	rng := rand.New(rand.NewSource(92))
	his := make([]float64, 1024)
	los := make([]float64, 1024)
	for i := range his {
		his[i] = math.Ldexp(rng.Float64()+0.5, rng.Intn(100)-50)
		los[i] = his[i] * (rng.Float64() - 0.5) * 1e-16
	}
	b.ResetTimer()
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += f.FromSum(his[i&1023], los[i&1023], RoundNearestEven)
	}
	_ = sink
}
