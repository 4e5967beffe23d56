package lp

import (
	"math"
	"math/big"
	"math/rand"
	"testing"
)

func solveBoth(t *testing.T, p Problem) (Solution, Solution) {
	t.Helper()
	sf, errF := SolveMaxMargin(p)
	se, errE := SolveMaxMarginExact(p)
	if (errF == nil) != (errE == nil) {
		t.Fatalf("solver disagreement: float err=%v exact err=%v", errF, errE)
	}
	if errF != nil {
		t.Fatalf("both solvers failed: %v", errF)
	}
	return sf, se
}

func TestSingleVariableCentering(t *testing.T) {
	p := Problem{
		NumVars:     1,
		Constraints: []Constraint{{Coeffs: []float64{1}, Lo: 0, Hi: 2}},
	}
	sf, se := solveBoth(t, p)
	for _, s := range []Solution{sf, se} {
		if math.Abs(s.X[0]-1) > 1e-9 {
			t.Errorf("x = %v, want 1 (margin-centered)", s.X[0])
		}
		if math.Abs(s.Margin-1) > 1e-9 {
			t.Errorf("margin = %v, want 1 (capped)", s.Margin)
		}
	}
}

func TestTwoConstraintsPartialOverlap(t *testing.T) {
	// x in [0,2] and x in [1,5]: feasible [1,2]; margin-optimal x balances
	// relative slack: (x-1)/2 = (2-x)/1 → x = 5/3.
	p := Problem{
		NumVars: 1,
		Constraints: []Constraint{
			{Coeffs: []float64{1}, Lo: 0, Hi: 2},
			{Coeffs: []float64{1}, Lo: 1, Hi: 5},
		},
	}
	sf, se := solveBoth(t, p)
	for _, s := range []Solution{sf, se} {
		if math.Abs(s.X[0]-5.0/3) > 1e-8 {
			t.Errorf("x = %v, want 5/3", s.X[0])
		}
		if math.Abs(s.Margin-1.0/3) > 1e-8 {
			t.Errorf("margin = %v, want 1/3", s.Margin)
		}
	}
}

func TestEquality(t *testing.T) {
	// C1 = 0 exactly plus C1 + C2 in [1, 3].
	p := Problem{
		NumVars: 2,
		Constraints: []Constraint{
			{Coeffs: []float64{1, 0}, Lo: 0, Hi: 0},
			{Coeffs: []float64{1, 1}, Lo: 1, Hi: 3},
		},
	}
	sf, se := solveBoth(t, p)
	for _, s := range []Solution{sf, se} {
		if math.Abs(s.X[0]) > 1e-10 {
			t.Errorf("x0 = %v, want 0", s.X[0])
		}
		if !(s.X[1] >= 1-1e-9 && s.X[1] <= 3+1e-9) {
			t.Errorf("x1 = %v outside [1,3]", s.X[1])
		}
	}
}

func TestInfeasible(t *testing.T) {
	p := Problem{
		NumVars: 1,
		Constraints: []Constraint{
			{Coeffs: []float64{1}, Lo: 0, Hi: 0},
			{Coeffs: []float64{1}, Lo: 1, Hi: 1},
		},
	}
	if _, err := SolveMaxMargin(p); err != ErrInfeasible {
		t.Errorf("float: err = %v, want ErrInfeasible", err)
	}
	if _, err := SolveMaxMarginExact(p); err != ErrInfeasible {
		t.Errorf("exact: err = %v, want ErrInfeasible", err)
	}
}

func TestNegativeMarginOverlap(t *testing.T) {
	// Two disjoint intervals for the same expression: no point satisfies
	// both, but with negative margin the LP still balances them rather
	// than reporting infeasible (inequality rows are soft under δ < 0).
	p := Problem{
		NumVars: 1,
		Constraints: []Constraint{
			{Coeffs: []float64{1}, Lo: 0, Hi: 1},
			{Coeffs: []float64{1}, Lo: 2, Hi: 3},
		},
	}
	sf, se := solveBoth(t, p)
	for _, s := range []Solution{sf, se} {
		if s.Margin >= 0 {
			t.Errorf("margin = %v, want negative", s.Margin)
		}
	}
}

func TestOneSidedBounds(t *testing.T) {
	p := Problem{
		NumVars: 1,
		Constraints: []Constraint{
			{Coeffs: []float64{1}, Lo: 3, Hi: math.Inf(1)},
			{Coeffs: []float64{1}, Lo: math.Inf(-1), Hi: 10},
			{Coeffs: []float64{1}, Lo: 4, Hi: 6},
		},
	}
	sf, se := solveBoth(t, p)
	for _, s := range []Solution{sf, se} {
		for i, c := range p.Constraints {
			if !c.Satisfied(s.X) {
				t.Errorf("constraint %d unsatisfied at %v", i, s.X)
			}
		}
	}
}

func TestValidation(t *testing.T) {
	bad := []Problem{
		{NumVars: 0},
		{NumVars: 2, Constraints: []Constraint{{Coeffs: []float64{1}, Lo: 0, Hi: 1}}},
		{NumVars: 1, Constraints: []Constraint{{Coeffs: []float64{1}, Lo: 2, Hi: 1}}},
		{NumVars: 1, Constraints: []Constraint{{Coeffs: []float64{math.NaN()}, Lo: 0, Hi: 1}}},
	}
	for i, p := range bad {
		if _, err := SolveMaxMargin(p); err == nil {
			t.Errorf("problem %d: float solver accepted invalid input", i)
		}
		if _, err := SolveMaxMarginExact(p); err == nil {
			t.Errorf("problem %d: exact solver accepted invalid input", i)
		}
	}
}

// ratSatisfied checks a constraint exactly.
func ratSatisfied(c Constraint, x []float64) bool {
	s := new(big.Rat)
	tmp := new(big.Rat)
	for j, a := range c.Coeffs {
		if a == 0 || x[j] == 0 {
			continue
		}
		s.Add(s, tmp.Mul(new(big.Rat).SetFloat64(a), new(big.Rat).SetFloat64(x[j])))
	}
	if !math.IsInf(c.Lo, 0) && s.Cmp(new(big.Rat).SetFloat64(c.Lo)) < 0 {
		return false
	}
	if !math.IsInf(c.Hi, 0) && s.Cmp(new(big.Rat).SetFloat64(c.Hi)) > 0 {
		return false
	}
	return true
}

// Random polynomial-fitting feasibility problems shaped like the real
// workload: coefficients of a degree-(k-1) polynomial constrained by
// intervals around a ground-truth polynomial at reduced-domain points.
func TestRandomPolynomialSystems(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	for trial := 0; trial < 60; trial++ {
		k := 2 + rng.Intn(4)
		truth := make([]float64, k)
		for j := range truth {
			truth[j] = rng.NormFloat64()
		}
		m := 5 + rng.Intn(40)
		p := Problem{NumVars: k}
		for i := 0; i < m; i++ {
			r := rng.Float64() / 64 // reduced-input scale
			coeffs := make([]float64, k)
			pow := 1.0
			v := 0.0
			for j := 0; j < k; j++ {
				coeffs[j] = pow
				v += truth[j] * pow
				pow *= r
			}
			w := math.Ldexp(1+rng.Float64(), -20)
			p.Constraints = append(p.Constraints, Constraint{Coeffs: coeffs, Lo: v - w, Hi: v + w})
		}
		solutions := map[string]Solution{}
		if se, err := SolveMaxMarginExact(p); err != nil {
			t.Fatalf("trial %d exact: %v", trial, err)
		} else {
			solutions["exact"] = se
		}
		// The float solver may bail out with ErrNumeric on ill-conditioned
		// raw Vandermonde systems — that is its contract; what it must
		// never do is return a bad solution without flagging it.
		if sf, err := SolveMaxMargin(p); err == nil {
			solutions["float"] = sf
		} else if err != ErrNumeric {
			t.Fatalf("trial %d float: %v", trial, err)
		}
		for name, s := range solutions {
			if s.Margin < 0 {
				t.Errorf("trial %d %s: negative margin %v on feasible system", trial, name, s.Margin)
				continue
			}
			for i, c := range p.Constraints {
				if !ratSatisfied(c, s.X) {
					t.Errorf("trial %d %s: constraint %d violated (margin %v)", trial, name, i, s.Margin)
				}
			}
		}
	}
}

// The exact solver's margin must weakly dominate the float solver's
// (it is exact; the float one may fall short but never exceed by much).
func TestExactAtLeastAsGood(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 20; trial++ {
		k := 2 + rng.Intn(3)
		p := Problem{NumVars: k}
		for i := 0; i < 10+rng.Intn(20); i++ {
			coeffs := make([]float64, k)
			for j := range coeffs {
				coeffs[j] = rng.NormFloat64()
			}
			mid := rng.NormFloat64()
			w := 0.1 + rng.Float64()
			p.Constraints = append(p.Constraints, Constraint{Coeffs: coeffs, Lo: mid - w, Hi: mid + w})
		}
		sf, errF := SolveMaxMargin(p)
		se, errE := SolveMaxMarginExact(p)
		if errF != nil || errE != nil {
			t.Fatalf("trial %d: errF=%v errE=%v", trial, errF, errE)
		}
		if se.Margin < sf.Margin-1e-6 {
			t.Errorf("trial %d: exact margin %v < float margin %v", trial, se.Margin, sf.Margin)
		}
	}
}

func BenchmarkFloatSimplex(b *testing.B) {
	rng := rand.New(rand.NewSource(42))
	k := 7
	p := Problem{NumVars: k}
	truth := make([]float64, k)
	for j := range truth {
		truth[j] = rng.NormFloat64()
	}
	for i := 0; i < 6*k*k; i++ {
		r := rng.Float64() / 64
		coeffs := make([]float64, k)
		pow, v := 1.0, 0.0
		for j := 0; j < k; j++ {
			coeffs[j] = pow
			v += truth[j] * pow
			pow *= r
		}
		w := math.Ldexp(1, -25)
		p.Constraints = append(p.Constraints, Constraint{Coeffs: coeffs, Lo: v - w, Hi: v + w})
	}
	b.ResetTimer()
	numeric := 0
	for i := 0; i < b.N; i++ {
		if _, err := SolveMaxMargin(p); err == ErrNumeric {
			numeric++ // ill-conditioned raw Vandermonde at k=7: expected sometimes
		} else if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(numeric)/float64(b.N), "numeric-bailout-rate")
}

// BenchmarkExactSimplex times SolveMaxMarginExact on a 96-row k=4
// Vandermonde system and on a gen-shaped sample (k=3, 6k² = 54 rows, one
// of them an equality — the shape that sends a Clarkson sample to the
// exact solver). It reports allocations: they are most of a big-number
// solver's cost.
func BenchmarkExactSimplex(b *testing.B) {
	rng := rand.New(rand.NewSource(43))
	k := 4
	p := Problem{NumVars: k}
	truth := make([]float64, k)
	for j := range truth {
		truth[j] = rng.NormFloat64()
	}
	for i := 0; i < 6*k*k; i++ {
		r := rng.Float64() / 64
		coeffs := make([]float64, k)
		pow, v := 1.0, 0.0
		for j := 0; j < k; j++ {
			coeffs[j] = pow
			v += truth[j] * pow
			pow *= r
		}
		w := math.Ldexp(1, -25)
		p.Constraints = append(p.Constraints, Constraint{Coeffs: coeffs, Lo: v - w, Hi: v + w})
	}
	for _, c := range []struct {
		name string
		p    Problem
	}{{"k4-96rows", p}, {"gen-k3-54rows-eq", genShapedProblem(3)}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := SolveMaxMarginExact(c.p); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// genShapedProblem builds a system shaped like one gen-cold exact solve:
// k coefficients, 6k² Vandermonde rows at reduced-domain points around a
// ground-truth polynomial, the first row an equality (an exact result).
func genShapedProblem(k int) Problem {
	rng := rand.New(rand.NewSource(44))
	truth := make([]float64, k)
	for j := range truth {
		truth[j] = rng.NormFloat64()
	}
	p := Problem{NumVars: k}
	for i := 0; i < 6*k*k; i++ {
		r := rng.Float64() / 64
		coeffs := make([]float64, k)
		pow := 1.0
		for j := range coeffs {
			coeffs[j] = pow
			pow *= r
		}
		v := Constraint{Coeffs: coeffs}.Eval(truth)
		w := math.Ldexp(1, -25)
		if i == 0 {
			w = 0
		}
		p.Constraints = append(p.Constraints, Constraint{Coeffs: coeffs, Lo: v - w, Hi: v + w})
	}
	return p
}
