// Package lp solves the small-dimensional linear programs at the heart of
// RLIBM-Prog: find polynomial coefficients x ∈ R^k satisfying two-sided
// interval constraints lo_i ≤ a_i·x ≤ hi_i. The package provides
//
//   - a dense two-phase float64 simplex (fast path, used for the thousands
//     of Clarkson sample solves), and
//   - an exact simplex with Bland's rule (the SoPlex substitute:
//     guaranteed-terminating, exact arithmetic).
//
// The exact simplex keeps no fractions. Every float64 is a dyadic
// rational, so scaling each structural column and the right-hand side by
// a power of two makes the whole tableau integral, and Edmonds'
// integer-preserving pivot keeps it so: integer numerators over one
// common denominator, each pivot an exact big.Int division with no gcd.
// The pivot path is the textbook rational tableau's, step for step.
// Positive column scalings keep the sign of every reduced cost and the
// order, ties included, of every ratio-test quotient, and the numerators
// over the denominator are the rational entries themselves, so Bland's
// rule picks the same entering and leaving pair at every step and ends in
// the same basis. The optimum, and its rounding to float64, is therefore
// bit-identical to that of a big.Rat tableau (exact_test.go checks this
// against one).
//
// Rather than an arbitrary vertex, both solvers maximize the relative
// margin δ: each constraint is tightened to lo_i + δ·w_i ≤ a_i·x ≤
// hi_i − δ·w_i with w_i = (hi_i − lo_i)/2, and δ (capped at 1) is
// maximized. A positive optimal δ yields an interior point of the feasible
// region, which survives the rounding of the solution to float64
// coefficients — the acceptance criterion of the generation pipeline.
package lp

import (
	"errors"
	"fmt"
	"math"
)

// Constraint is the two-sided row lo ≤ coeffs·x ≤ hi. Either side may be
// infinite (math.Inf) to drop that bound; lo == hi expresses an equality.
type Constraint struct {
	Coeffs []float64
	Lo, Hi float64
}

// IsEquality reports whether the row pins coeffs·x to a single value.
// Lo and Hi are stored bounds, never recomputed, so comparing them exactly
// is the definition of an equality row rather than a rounding hazard.
func (c Constraint) IsEquality() bool {
	//lint:ignore floateq Lo and Hi are stored endpoints; identical bits mark an equality row by construction.
	return c.Lo == c.Hi
}

// Problem is a collection of constraints over NumVars unknowns.
type Problem struct {
	NumVars     int
	Constraints []Constraint
}

// Solution is the result of a successful solve.
type Solution struct {
	X []float64
	// Margin is the achieved relative margin δ ∈ [-∞, 1]; ≥ 0 means every
	// constraint is satisfied (with slack proportional to its width).
	Margin float64
}

// ErrInfeasible reports that no assignment satisfies the constraints (not
// even with negative margin, which only happens with contradictory
// equalities).
var ErrInfeasible = errors.New("lp: infeasible")

// ErrUnbounded reports an unbounded objective; it cannot occur in the
// margin formulation (δ ≤ 1) and indicates a malformed problem.
var ErrUnbounded = errors.New("lp: unbounded")

// ErrNumeric reports that the float64 simplex lost too much precision to
// certify its answer.
var ErrNumeric = errors.New("lp: numerically unstable")

// Uncertain reports whether err is a float64-simplex verdict that must be
// confirmed by the exact rational solver before it may cut the search:
// ErrNumeric is a precision failure, not an answer, and the float
// simplex's ErrInfeasible is an epsilon judgement, not a certificate.
// Exact-solver verdicts and all other errors are final. The fault
// taxonomy maps a confirmed ErrNumeric to CodeSolverNumeric and a
// certified ErrInfeasible to CodeSolverInfeasible (see internal/fault).
func Uncertain(err error) bool {
	return errors.Is(err, ErrNumeric) || errors.Is(err, ErrInfeasible)
}

// validate checks structural sanity shared by both solvers.
func (p Problem) validate() error {
	if p.NumVars <= 0 {
		return fmt.Errorf("lp: NumVars = %d", p.NumVars)
	}
	for i, c := range p.Constraints {
		if len(c.Coeffs) != p.NumVars {
			return fmt.Errorf("lp: constraint %d has %d coefficients, want %d", i, len(c.Coeffs), p.NumVars)
		}
		if math.IsNaN(c.Lo) || math.IsNaN(c.Hi) || c.Lo > c.Hi {
			return fmt.Errorf("lp: constraint %d has bad bounds [%g, %g]", i, c.Lo, c.Hi)
		}
		for _, a := range c.Coeffs {
			if math.IsNaN(a) || math.IsInf(a, 0) {
				return fmt.Errorf("lp: constraint %d has non-finite coefficient", i)
			}
		}
	}
	return nil
}

// width returns the margin weight of a constraint: half its interval width,
// zero for equalities and one-sided rows (whose margin tightening is
// skipped).
func (c Constraint) width() float64 {
	if math.IsInf(c.Lo, 0) || math.IsInf(c.Hi, 0) {
		return 0
	}
	return (c.Hi - c.Lo) / 2
}

// MeasuredMargin returns the relative margin of x computed by direct
// evaluation: the minimum over constraints of min(v-lo, hi-v)/width
// (capped at 1). Equality and one-sided rows carry no margin weight in the
// LP either: when satisfied they do not limit the margin, when violated
// they force it to -1. This is the ground truth the pipeline
// trusts — solvers report it rather than their internal objective value.
func (p Problem) MeasuredMargin(x []float64) float64 {
	m := 1.0
	for _, c := range p.Constraints {
		v := c.Eval(x)
		var mi float64
		w := c.width()
		switch {
		case c.IsEquality():
			scale := math.Max(math.Abs(c.Lo), 1)
			if math.Abs(v-c.Lo) <= 1e-12*scale {
				mi = 1
			} else {
				mi = -1
			}
		case w == 0: // one-sided
			if (math.IsInf(c.Lo, 0) || v >= c.Lo) && (math.IsInf(c.Hi, 0) || v <= c.Hi) {
				mi = 1
			} else {
				mi = -1
			}
		default:
			mi = math.Min(v-c.Lo, c.Hi-v) / w
		}
		if mi < m {
			m = mi
		}
	}
	return m
}

// Eval returns coeffs·x.
func (c Constraint) Eval(x []float64) float64 {
	s := 0.0
	for j, a := range c.Coeffs {
		s += a * x[j]
	}
	return s
}

// Satisfied reports whether x meets the constraint.
func (c Constraint) Satisfied(x []float64) bool {
	v := c.Eval(x)
	return v >= c.Lo && v <= c.Hi
}
