package repro_test

import (
	"math"
	"testing"

	"repro/internal/bigmath"
	"repro/internal/fp"
	"repro/internal/gen"
	"repro/internal/oracle"
	"repro/internal/verify"
)

// TestParallelDeterminism is the contract test of the worker-pool pipeline:
// running the full generation and verification for the same seed with 1 and
// with 8 workers must produce bit-identical results — coefficients, piece
// boundaries, term counts, special-input tables, and verification reports.
// cospi exercises the hardest paths: the two-kernel affine split and the
// cross-level reduction-state dedup.
func TestParallelDeterminism(t *testing.T) {
	fn := bigmath.CosPi
	levels := []fp.Format{fp.MustFormat(12, 8), fp.MustFormat(16, 8)}
	generate := func(workers int) *gen.Result {
		res, err := gen.Generate(fn, gen.Options{Levels: levels, Seed: 3, Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if _, err := verify.Repair(res, oracle.New(fn), workers); err != nil {
			t.Fatalf("workers=%d repair: %v", workers, err)
		}
		return res
	}
	serial, parallel := generate(1), generate(8)

	if len(serial.Kernels) != len(parallel.Kernels) {
		t.Fatalf("kernel count: %d vs %d", len(serial.Kernels), len(parallel.Kernels))
	}
	for p := range serial.Kernels {
		ks, kp := serial.Kernels[p], parallel.Kernels[p]
		if len(ks.Pieces) != len(kp.Pieces) {
			t.Fatalf("kernel %d: %d vs %d pieces", p, len(ks.Pieces), len(kp.Pieces))
		}
		for pi := range ks.Pieces {
			ps, pp := ks.Pieces[pi], kp.Pieces[pi]
			if math.Float64bits(ps.Lo) != math.Float64bits(pp.Lo) ||
				math.Float64bits(ps.Hi) != math.Float64bits(pp.Hi) {
				t.Errorf("kernel %d piece %d bounds differ: [%v,%v] vs [%v,%v]",
					p, pi, ps.Lo, ps.Hi, pp.Lo, pp.Hi)
			}
			if len(ps.Coeffs) != len(pp.Coeffs) {
				t.Fatalf("kernel %d piece %d: %d vs %d coeffs", p, pi, len(ps.Coeffs), len(pp.Coeffs))
			}
			for ci := range ps.Coeffs {
				if math.Float64bits(ps.Coeffs[ci]) != math.Float64bits(pp.Coeffs[ci]) {
					t.Errorf("kernel %d piece %d coeff %d: %x vs %x",
						p, pi, ci, math.Float64bits(ps.Coeffs[ci]), math.Float64bits(pp.Coeffs[ci]))
				}
			}
		}
	}
	for li := range serial.Levels {
		ts, tp := serial.TermsAt(li), parallel.TermsAt(li)
		if len(ts) != len(tp) {
			t.Fatalf("level %d terms: %v vs %v", li, ts, tp)
		}
		for i := range ts {
			if ts[i] != tp[i] {
				t.Errorf("level %d terms: %v vs %v", li, ts, tp)
			}
		}
		ss, sp := serial.Specials[li], parallel.Specials[li]
		if len(ss) != len(sp) {
			t.Fatalf("level %d: %d vs %d specials", li, len(ss), len(sp))
		}
		for i := range ss {
			if math.Float64bits(ss[i].X) != math.Float64bits(sp[i].X) || ss[i].Proxy != sp[i].Proxy {
				t.Errorf("level %d special %d: (%v,%#x) vs (%v,%#x)",
					li, i, ss[i].X, ss[i].Proxy, sp[i].X, sp[i].Proxy)
			}
		}
	}

	// Verification reports of the clean implementation must agree too, and
	// both must be correct.
	orc := oracle.New(fn)
	for li, modes := range [][]fp.Mode{{fp.RoundNearestEven}, fp.StandardModes} {
		rs, err := verify.ExhaustiveLevel(serial, orc, li, modes, 1)
		if err != nil {
			t.Fatal(err)
		}
		rp, err := verify.ExhaustiveLevel(parallel, orc, li, modes, 8)
		if err != nil {
			t.Fatal(err)
		}
		for i := range rs {
			if !rs[i].Correct() {
				t.Errorf("serial: %v", rs[i])
			}
			if rs[i].Checked != rp[i].Checked || len(rs[i].Mismatches) != len(rp[i].Mismatches) {
				t.Errorf("level %d report %d differs: %v vs %v", li, i, rs[i], rp[i])
			}
		}
	}

	// Mismatch lists must merge in input order for any worker count: check
	// with a deliberately broken implementation against both settings.
	f := serial.Levels[0]
	bs := verify.Exhaustive(alwaysWrong{}, orc, f, []fp.Mode{fp.RoundNearestEven}, 1)
	bp := verify.Exhaustive(alwaysWrong{}, orc, f, []fp.Mode{fp.RoundNearestEven}, 8)
	if len(bs[0].Mismatches) == 0 {
		t.Fatal("broken implementation produced no mismatches")
	}
	if len(bs[0].Mismatches) != len(bp[0].Mismatches) {
		t.Fatalf("mismatch counts differ: %d vs %d", len(bs[0].Mismatches), len(bp[0].Mismatches))
	}
	for i := range bs[0].Mismatches {
		if bs[0].Mismatches[i] != bp[0].Mismatches[i] {
			t.Fatalf("mismatch %d differs: %#x vs %#x", i, bs[0].Mismatches[i], bp[0].Mismatches[i])
		}
	}
}

// alwaysWrong maps every input to the bit pattern after the correct one,
// guaranteeing a dense mismatch list for merge-order checking.
type alwaysWrong struct{}

func (alwaysWrong) Bits(x float64, out fp.Format, mode fp.Mode) uint64 {
	return out.NextUp(out.FromFloat64(x, mode))
}

// TestParallelRaceSmoke runs the full pipeline — enumerate, solve, repair,
// verify — with 4 workers on a small format; under `go test -race` this
// sweeps the shared oracle, the worker pool and the sharded merge for data
// races. sinpi covers the dedup prepass and two-kernel path, exp2 the
// monotone inversion path.
func TestParallelRaceSmoke(t *testing.T) {
	levels := []fp.Format{fp.MustFormat(10, 8)}
	for _, fn := range []bigmath.Func{bigmath.Exp2, bigmath.SinPi} {
		orc := oracle.New(fn)
		res, err := gen.Generate(fn, gen.Options{Levels: levels, Seed: 2, Workers: 4, Oracle: orc})
		if err != nil {
			t.Fatalf("%v: %v", fn, err)
		}
		if _, err := verify.Repair(res, orc, 4); err != nil {
			t.Fatalf("%v repair: %v", fn, err)
		}
		impl, err := verify.Compile(res, levels[0])
		if err != nil {
			t.Fatalf("%v: %v", fn, err)
		}
		for _, rep := range verify.Exhaustive(impl, orc, levels[0], fp.StandardModes, 4) {
			if !rep.Correct() {
				t.Errorf("%v: %v", fn, rep)
			}
		}
	}
}
