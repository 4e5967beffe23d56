package lp

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// sameExact fails t unless the fraction-free solver and the big.Rat
// reference agree on p: the same error, or bit-identical X. It returns
// the error.
func sameExact(t *testing.T, label string, p Problem) error {
	t.Helper()
	got, errGot := SolveMaxMarginExact(p)
	want, errWant := solveMaxMarginRat(p)
	if fmt.Sprint(errGot) != fmt.Sprint(errWant) {
		t.Fatalf("%s: err = %v, reference err = %v", label, errGot, errWant)
	}
	if errGot != nil {
		return errGot
	}
	for j := range want.X {
		if math.Float64bits(got.X[j]) != math.Float64bits(want.X[j]) {
			t.Fatalf("%s: X[%d] = %x (%g), reference %x (%g)", label, j,
				math.Float64bits(got.X[j]), got.X[j], math.Float64bits(want.X[j]), want.X[j])
		}
	}
	return nil
}

// randomExactProblem draws one system for the differential test. Rows mix
// the gen workload's shapes (Vandermonde rows around a ground-truth
// polynomial, two-sided intervals and equalities) with one-sided rows,
// negative right-hand sides, coefficients spread over 160 binades
// or subnormal, and occasionally a contradicting row that makes the system
// infeasible.
func randomExactProblem(rng *rand.Rand, k int) Problem {
	truth := make([]float64, k)
	for j := range truth {
		truth[j] = rng.NormFloat64() * math.Ldexp(1, rng.Intn(9)-4)
	}
	spread := [8]int{0, 0, 0, 0, 1, 1, 1, 2}[rng.Intn(8)] // 0: gen-like, 1: wide exponents, 2: wide + subnormals
	p := Problem{NumVars: k}
	m := 1 + rng.Intn(3*k+3)
	if spread > 0 {
		// Wide exponents make the reference's gcds slow (a subnormal
		// spreads its column over ~1100 bits); fewer rows keep the test
		// quick.
		m = 1 + rng.Intn(2*k+4-2*spread)
	}
	for i := 0; i < m; i++ {
		coeffs := make([]float64, k)
		r := rng.Float64() / 64
		pow := 1.0
		for j := range coeffs {
			switch {
			case spread == 0:
				coeffs[j] = pow
				pow *= r
			case spread == 2 && rng.Intn(2*k) == 0:
				coeffs[j] = math.Float64frombits(rng.Uint64() & (1<<52 - 1)) // subnormal or zero
			case rng.Intn(6) == 0:
				coeffs[j] = 0
			default:
				coeffs[j] = math.Ldexp(rng.NormFloat64(), rng.Intn(160)-80)
			}
		}
		v := Constraint{Coeffs: coeffs}.Eval(truth)
		w := math.Abs(v)*math.Ldexp(1, -rng.Intn(40)) + math.Ldexp(1, -rng.Intn(60)-10)
		c := Constraint{Coeffs: coeffs, Lo: v - w, Hi: v + w}
		switch rng.Intn(8) {
		case 0:
			c.Lo, c.Hi = v, v
		case 1:
			c.Hi = math.Inf(1)
		case 2:
			c.Lo = math.Inf(-1)
		case 3: // an interval off the truth: may contradict other rows
			off := v + 3*w*float64(rng.Intn(3)-1)
			c.Lo, c.Hi = off-w/2, off+w/2
		}
		p.Constraints = append(p.Constraints, c)
	}
	if rng.Intn(6) == 0 { // contradict a row outright
		c := p.Constraints[rng.Intn(m)]
		out := c.Hi + math.Abs(c.Hi) + 1 // above an upper bound
		if math.IsInf(c.Hi, 1) {
			out = c.Lo - math.Abs(c.Lo) - 1 // below a lower-only bound
		}
		p.Constraints = append(p.Constraints, Constraint{Coeffs: c.Coeffs, Lo: out, Hi: out})
	}
	return p
}

// TestExactMatchesRationalReference pins SolveMaxMarginExact to the
// big.Rat reference it replaced: identical X bits and errors on random
// systems of every row kind, k = 1..5.
func TestExactMatchesRationalReference(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	infeasible := 0
	for trial := 0; trial < 200; trial++ {
		k := 1 + trial%5
		p := randomExactProblem(rng, k)
		label := fmt.Sprintf("trial %d (k=%d, %d rows)", trial, k, len(p.Constraints))
		if errors.Is(sameExact(t, label, p), ErrInfeasible) {
			infeasible++
		}
	}
	if infeasible == 0 {
		t.Error("no infeasible system drawn; the generator no longer covers that path")
	}
}

// TestExactRejectsNonDyadicRows: rows with no exact rational form are a
// typed validation error, not a panic or a different problem.
func TestExactRejectsNonDyadicRows(t *testing.T) {
	inf := math.Inf(1)
	for _, c := range []Constraint{
		{Coeffs: []float64{1}, Lo: inf, Hi: inf},
		{Coeffs: []float64{1}, Lo: -inf, Hi: -inf},
		{Coeffs: []float64{1}, Lo: -math.MaxFloat64, Hi: math.MaxFloat64},
	} {
		if _, err := SolveMaxMarginExact(Problem{NumVars: 1, Constraints: []Constraint{c}}); err == nil {
			t.Errorf("[%g, %g]: no error", c.Lo, c.Hi)
		}
	}
}

// decodeExactProblem maps fuzz bytes to a system: k = 1 + kb%5, then per
// row one kind byte (two-sided, equality, lower-only, upper-only) and
// k+2 little-endian float64s (coefficients, then two bounds, sorted).
// Non-finite coefficients become zero; at most 8 rows keep the reference
// fast.
func decodeExactProblem(kb uint8, data []byte) Problem {
	k := 1 + int(kb)%5
	p := Problem{NumVars: k}
	f := func(b []byte) float64 {
		v := math.Float64frombits(binary.LittleEndian.Uint64(b))
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return 0
		}
		return v
	}
	rowLen := 1 + 8*(k+2)
	for len(data) >= rowLen && len(p.Constraints) < 8 {
		kind, fs := data[0], data[1:rowLen]
		data = data[rowLen:]
		coeffs := make([]float64, k)
		for j := range coeffs {
			coeffs[j] = f(fs[8*j:])
		}
		lo, hi := f(fs[8*k:]), f(fs[8*k+8:])
		if lo > hi {
			lo, hi = hi, lo
		}
		switch kind % 4 {
		case 1:
			hi = lo
		case 2:
			hi = math.Inf(1)
		case 3:
			lo = math.Inf(-1)
		}
		p.Constraints = append(p.Constraints, Constraint{Coeffs: coeffs, Lo: lo, Hi: hi})
	}
	return p
}

// FuzzExactSimplex checks SolveMaxMarginExact against the big.Rat
// reference on arbitrary small systems: raw float64 bits reach every
// binade, subnormals included. The seeds under
// testdata/fuzz/FuzzExactSimplex are randomExactProblem draws, one for
// each k = 1..5 holding an equality, a one-sided row, a negative
// right-hand side, a subnormal coefficient, or no solution at all.
func FuzzExactSimplex(f *testing.F) {
	f.Fuzz(func(t *testing.T, kb uint8, data []byte) {
		p := decodeExactProblem(kb, data)
		for _, c := range p.Constraints {
			if math.IsInf(c.width(), 0) {
				t.Skip("margin weight overflows: rejected by SolveMaxMarginExact, unrepresentable in the reference")
			}
		}
		sameExact(t, fmt.Sprintf("%+v", p.Constraints), p)
	})
}
