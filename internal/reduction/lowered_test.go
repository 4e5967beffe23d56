package reduction

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/bigmath"
)

// loweredCorpus mixes regular inputs, every scheme's special classes and
// random magnitudes across the exponent range.
func loweredCorpus(rng *rand.Rand) []float64 {
	vs := []float64{
		0, math.Copysign(0, -1), 1, -1, 0.5, 2, math.Inf(1), math.Inf(-1), math.NaN(),
		1e-12, -1e-12, 1.0 / (1 << 32), 200, -200, 95, -95, 131, -160, 40, -48,
		2.5, -2.5, 0.25, 31.0 / 64, 0x1p52, 0x1p52 + 0.5, 1 + 1e-7, 1 - 1e-7,
	}
	for i := 0; i < 5000; i++ {
		vs = append(vs, math.Ldexp(rng.Float64()*2-1, rng.Intn(220)-110))
	}
	return vs
}

// TestLoweredMatchesScheme pins the tag-switched scheme to the Scheme
// interface path: for every function, Lowered.{Func,NumPolys,Reduce,
// Compensate,Special} agree bit for bit with it on a mixed corpus.
func TestLoweredMatchesScheme(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	corpus := loweredCorpus(rng)
	for _, fn := range bigmath.AllFuncs {
		s := ForFunc(fn)
		l := Lower(fn)
		if l.Func() != s.Func() {
			t.Fatalf("%v: Func mismatch", fn)
		}
		if l.NumPolys() != s.NumPolys() {
			t.Fatalf("%v: NumPolys mismatch", fn)
		}
		for _, x := range corpus {
			ctxS, okS := s.Reduce(x)
			ctxL, okL := l.Reduce(x)
			if okS != okL || ctxS != ctxL {
				t.Fatalf("%v: Reduce(%x): scheme (%+v,%v) vs lowered (%+v,%v)", fn, x, ctxS, okS, ctxL, okL)
			}
			if !okS {
				sv, lv := s.Special(x), l.Special(x)
				if math.Float64bits(sv) != math.Float64bits(lv) {
					t.Fatalf("%v: Special(%x): %x vs %x", fn, x, sv, lv)
				}
				continue
			}
			y0 := rng.Float64() * 2
			y1 := rng.Float64() - 0.5
			cs, cl := s.Compensate(ctxS, y0, y1), l.Compensate(ctxL, y0, y1)
			if math.Float64bits(cs) != math.Float64bits(cl) {
				t.Fatalf("%v: Compensate(%x): %x vs %x", fn, x, cs, cl)
			}
		}
	}
}

// TestLoweredZeroAllocs keeps the regular path of the tag-switched scheme
// allocation-free: the benchmark's layer replay times Reduce and
// Compensate.
func TestLoweredZeroAllocs(t *testing.T) {
	for _, fn := range bigmath.AllFuncs {
		l := Lower(fn)
		if n := testing.AllocsPerRun(100, func() {
			ctx, ok := l.Reduce(0.7265625)
			if ok {
				_ = l.Compensate(ctx, 1.0, 0.5)
			}
		}); n != 0 {
			t.Fatalf("%v: regular path allocates %v times per run", fn, n)
		}
	}
}
