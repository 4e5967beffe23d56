package reduction

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/bigmath"
	"repro/internal/fp"
)

// TestCtxFitsRegisters pins Ctx to at most four fields. Go's SSA backend
// decomposes only structs of at most four fields into registers; a fifth
// field sends every Reduce result through a stack slot, and the batch
// kernel then reloads it with wide loads over narrow stores (a
// store-forwarding stall) once per input.
func TestCtxFitsRegisters(t *testing.T) {
	if n := reflect.TypeOf(Ctx{}).NumField(); n > 4 {
		t.Fatalf("reduction.Ctx has %d fields; the SSA backend keeps only structs of at most 4 in registers", n)
	}
}

// TestExpScaleIsNormal runs every regular input of the exponential family —
// all of F(22,8), plus the doubles within two encodings of each cutoff —
// and checks that Reduce's scale B is a normal power of two 2^q and that
// Compensate equals math.Ldexp(y·A, q), so the bit-built scale never
// replaces a branch of math.Ldexp that a regular input could reach.
func TestExpScaleIsNormal(t *testing.T) {
	f := fp.MustFormat(22, 8)
	var xs []float64
	for b := uint64(0); b < f.NumValues(); b++ {
		xs = append(xs, f.Decode(b))
	}
	rng := rand.New(rand.NewSource(26))
	for _, fn := range []bigmath.Func{bigmath.Exp, bigmath.Exp2, bigmath.Exp10} {
		s := newExpScheme(fn)
		var edges []float64
		for _, c := range []float64{s.hiCut, s.loCut, expTinyCut, -expTinyCut} {
			for d := -2; d <= 2; d++ {
				edges = append(edges, math.Float64frombits(uint64(int64(math.Float64bits(c))+int64(d))))
			}
		}
		qMin, qMax := math.MaxInt, math.MinInt
		for _, x := range append(edges, xs...) {
			ctx, regular := s.Reduce(x)
			if !regular {
				continue
			}
			bits := math.Float64bits(ctx.B)
			field := int(bits >> 52)
			if bits&(1<<52-1) != 0 || field < 1 || field > 2046 {
				t.Fatalf("%v(%x): scale %x is not a power of two in [2^-1022, 2^1023]", fn, x, ctx.B)
			}
			q := field - 1023
			qMin, qMax = min(qMin, q), max(qMax, q)
			y := math.Ldexp(rng.Float64()+0.5, rng.Intn(64)-32)
			if got, want := s.Compensate(ctx, y, 0), math.Ldexp(y*ctx.A, q); !sameFloat(got, want) {
				t.Fatalf("%v(%x): Compensate(%x) = %x, Ldexp(y·A, %d) = %x", fn, x, y, got, q, want)
			}
		}
		t.Logf("%v: q in [%d, %d]", fn, qMin, qMax)
	}
}
