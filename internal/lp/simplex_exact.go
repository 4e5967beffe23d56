package lp

import (
	"fmt"
	"math"
	"math/big"
	"math/bits"
)

// SolveMaxMarginExact solves the margin LP in exact arithmetic with
// Bland's rule — the package's SoPlex substitute. Every float64
// coefficient and bound is a dyadic rational, the simplex is exact and
// guaranteed to terminate, and infeasibility/optimality are certificates
// rather than numerical judgements. The solution vector is rounded to the
// nearest float64s only on return.
//
// The tableau is fraction-free (Edmonds' integer-preserving pivoting):
// each structural column and the right-hand side are scaled by a power of
// two so every entry is an integer, and the tableau stores integer
// numerators over one positive common denominator. See intTableau for why
// the pivot sequence, and hence the returned bits, is exactly that of the
// textbook rational tableau.
//
// The cost is polynomial but with big-integer constants: intended for the
// Clarkson samples (hundreds of rows), not for millions of rows.
func SolveMaxMarginExact(p Problem) (Solution, error) {
	if err := p.validate(); err != nil {
		return Solution{}, err
	}
	for i, c := range p.Constraints {
		// Every row entry must be a finite dyadic rational: a bound no
		// finite value meets (lo = +∞, hi = −∞) or a margin weight
		// (hi−lo)/2 that overflows has no exact form.
		if math.IsInf(c.Lo, 1) || math.IsInf(c.Hi, -1) || math.IsInf(c.width(), 0) {
			return Solution{}, fmt.Errorf("lp: constraint %d has bounds [%g, %g] with no exact rational form", i, c.Lo, c.Hi)
		}
	}
	k := p.NumVars
	nStruct := 2*k + 2

	// Row i of the LP is a·x⁺ − a·x⁻ + w·d⁺ − w·d⁻ + slack·s_i = rhs:
	// columns 0..k−1 hold a, k..2k−1 its negation, 2k and 2k+1 the margin
	// weight w and its negation.
	type row struct {
		a     []float64
		w     float64
		slack int // +1, -1 or 0
		rhs   float64
	}
	var rows []row
	for _, con := range p.Constraints {
		w := con.width()
		if con.IsEquality() {
			rows = append(rows, row{a: con.Coeffs, rhs: con.Lo})
			continue
		}
		if !math.IsInf(con.Lo, 0) {
			rows = append(rows, row{a: con.Coeffs, w: -w, slack: -1, rhs: con.Lo})
		}
		if !math.IsInf(con.Hi, 0) {
			rows = append(rows, row{a: con.Coeffs, w: w, slack: +1, rhs: con.Hi})
		}
	}
	rows = append(rows, row{a: make([]float64, k), w: 1, slack: +1, rhs: 1}) // δ ≤ 1

	// Column scales: 2^-ea[j] for x_j⁺ and x_j⁻, 2^-ew for d⁺ and d⁻,
	// 2^-erhs for the right-hand side — each the lowest set bit of its
	// column (at most 2^0), so every scaled entry is an integer.
	ea := make([]int, k)
	ew, erhs := 0, 0
	for _, r := range rows {
		for j, a := range r.a {
			ea[j] = minExp(ea[j], a)
		}
		ew = minExp(ew, r.w)
		erhs = minExp(erhs, r.rhs)
	}

	m := len(rows)
	t := newIntTableau(m, nStruct)
	for i, r := range rows {
		neg := r.rhs < 0 // the row is negated so that its artificial starts feasible
		a := t.a[i]
		for j, v := range r.a {
			setScaled(&a[j], v, ea[j], neg)
			a[k+j].Neg(&a[j])
		}
		setScaled(&a[2*k], r.w, ew, neg)
		a[2*k+1].Neg(&a[2*k])
		t.sigma[i] = int8(r.slack)
		if neg {
			t.sigma[i] = -t.sigma[i]
		}
		a[nStruct+i].SetInt64(1) // artificial
		setScaled(&a[t.rhs], r.rhs, erhs, neg)
		t.basis[i] = t.artStart + i
	}

	// Phase 1.
	t.initPhase1()
	if !t.iterateBland() {
		return Solution{}, ErrUnbounded
	}
	if t.cost[t.rhs].Sign() < 0 {
		return Solution{}, ErrInfeasible
	}
	t.driveOutArtificials()

	// Phase 2: minimize -(d+ - d-). Both margin columns carry the scale
	// 2^-ew, so this unscaled objective is the scaled one divided by a
	// positive constant: every reduced cost keeps its sign.
	obj := make([]int64, nStruct)
	obj[2*k] = -1
	obj[2*k+1] = 1
	t.initPhase2(obj)
	if !t.iterateBland() {
		return Solution{}, ErrUnbounded
	}

	// x_j = (y_j⁺ − y_j⁻)·2^(erhs−ea[j]) with y = rhs/d in basic rows.
	rowOf := make([]int, nStruct)
	for i := range rowOf {
		rowOf[i] = -1
	}
	for i, b := range t.basis {
		if b < nStruct {
			rowOf[b] = i
		}
	}
	x := make([]float64, k)
	for j := 0; j < k; j++ {
		num, den := new(big.Int), new(big.Int).Set(&t.d)
		if i := rowOf[j]; i >= 0 {
			num.Add(num, &t.a[i][t.rhs])
		}
		if i := rowOf[k+j]; i >= 0 {
			num.Sub(num, &t.a[i][t.rhs])
		}
		if sh := erhs - ea[j]; sh >= 0 {
			num.Lsh(num, uint(sh))
		} else {
			den.Lsh(den, uint(-sh))
		}
		x[j], _ = new(big.Rat).SetFrac(num, den).Float64()
	}
	// Report the margin of the float64-rounded solution (what the pipeline
	// will actually evaluate), not the exact-rational optimum.
	return Solution{X: x, Margin: p.MeasuredMargin(x)}, nil
}

// dyadic splits a finite nonzero f into an odd integer mantissa and an
// exponent: |f| = mant·2^exp.
func dyadic(f float64) (mant uint64, exp int) {
	frac, e := math.Frexp(math.Abs(f))
	mant = uint64(frac * (1 << 53))
	tz := bits.TrailingZeros64(mant)
	return mant >> tz, e - 53 + tz
}

// minExp folds f's lowest set bit into the running column minimum e;
// zeros leave it unchanged.
func minExp(e int, f float64) int {
	if f == 0 {
		return e
	}
	_, fe := dyadic(f)
	return min(e, fe)
}

// setScaled sets z to f·2^-e (an integer, since e is at most f's lowest
// set bit), negated when neg.
func setScaled(z *big.Int, f float64, e int, neg bool) {
	if f == 0 {
		return
	}
	mant, fe := dyadic(f)
	z.SetUint64(mant)
	z.Lsh(z, uint(fe-e))
	if (f < 0) != neg {
		z.Neg(z)
	}
}

// intTableau is a dense fraction-free simplex tableau: entry (i, j) is
// a[i][j]/d and reduced cost j is cost[j]/d, with integer numerators over
// one positive common denominator d.
//
// Pivoting on (r, c) leaves row r's numerators unchanged, makes a[r][c]
// the new denominator and updates every other row (the cost row
// included) by
//
//	a'[i][j] = (a[i][j]·a[r][c] − a[i][c]·a[r][j]) / d,
//
// a division that is always exact: every numerator is a minor of the
// integer constraint matrix and d is ± the basis determinant (Edmonds,
// "Systems of distinct representatives and linear algebra", 1967). The
// values a/d are those of the rational tableau, so Bland's rule, which
// reads only their signs and the order of the ratio-test quotients,
// takes the same pivots.
//
// The power-of-two column scaling that makes the initial tableau integral
// does not change those pivots either. Scaling column j by s_j > 0 and the
// right-hand side by s_b > 0 multiplies entry (i, j) by s_j/s_B(i), every
// ratio-test quotient of entering column c by the same s_b/s_c, and
// reduced cost j by s_j: signs, the order of quotients and their ties are
// all preserved, so the entering and leaving choices are the same at every
// step and the final basis is the same.
//
// The logical columns are the nStruct structural ones, one slack per row
// and one artificial per row, in that order (Bland's rule scans them so).
// Only the structural and artificial columns and the right-hand side are
// stored. Row i's slack column starts as sigma[i] times its artificial
// column (sigma[i] = ±1, or 0 for an equality row, which has none), and
// pivots are linear in the columns, so the relation holds at every step;
// in the cost row it holds up to the artificials' phase-1 objective
// coefficient 1, which the stored artificial costs include and a slack's
// do not. Dropping the slacks halves the tableau and every pivot's work.
type intTableau struct {
	m, nStruct int
	artStart   int         // first artificial logical column, nStruct+m
	n          int         // logical columns, nStruct+2m
	rhs        int         // stored right-hand-side column, nStruct+m
	a          [][]big.Int // m × (rhs+1): structural, artificial, rhs
	cost       []big.Int   // rhs+1
	sigma      []int8      // slack column nStruct+i = sigma[i] × artificial column i
	phase2     bool        // artificials cost 0 and may not enter (else cost 1)
	d          big.Int     // common denominator, > 0
	basis      []int       // logical columns

	// Scratch reused by every pivot: piv is the pivot entry, f the
	// entering-column entry of the row being updated, p and q the two
	// products, rem the (zero) remainder of the exact division.
	piv, f, p, q, rem big.Int
}

func newIntTableau(m, nStruct int) *intTableau {
	t := &intTableau{m: m, nStruct: nStruct, artStart: nStruct + m, n: nStruct + 2*m, rhs: nStruct + m,
		sigma: make([]int8, m), basis: make([]int, m)}
	w := t.rhs + 1
	cells := make([]big.Int, (m+1)*w)
	t.a = make([][]big.Int, m)
	for i := range t.a {
		t.a[i] = cells[i*w : (i+1)*w : (i+1)*w]
	}
	t.cost = cells[m*w:]
	t.d.SetInt64(1)
	return t
}

// stored maps logical column j to its stored column and the sign it is
// stored with: a slack column is sigma times its row's artificial column.
func (t *intTableau) stored(j int) (s, sign int) {
	switch {
	case j < t.nStruct:
		return j, 1
	case j < t.artStart:
		return j, int(t.sigma[j-t.nStruct])
	default:
		return j - t.m, 1
	}
}

// costSign is the sign of logical column j's reduced cost. A slack's is
// sigma·(its artificial's cost − d) in phase 1, sigma·(its artificial's
// cost) in phase 2.
func (t *intTableau) costSign(j int) int {
	s, sign := t.stored(j)
	switch {
	case j < t.nStruct || j >= t.artStart:
		return t.cost[s].Sign()
	case t.phase2:
		return sign * t.cost[s].Sign()
	default:
		return sign * t.cost[s].Cmp(&t.d)
	}
}

// costOf sets z to the numerator of logical column j's reduced cost.
func (t *intTableau) costOf(j int, z *big.Int) {
	s, sign := t.stored(j)
	z.Set(&t.cost[s])
	if j < t.nStruct || j >= t.artStart {
		return
	}
	if !t.phase2 {
		z.Sub(z, &t.d)
	}
	setSigned(z, z, sign)
}

// setSigned sets z to sign·x for sign ±1.
func setSigned(z, x *big.Int, sign int) {
	z.Set(x)
	if sign < 0 {
		z.Neg(z)
	}
}

// initPhase1 sets the phase-1 reduced costs (every artificial costs 1)
// for the all-artificial basis, d = 1: minus the column sums, zero on the
// artificials.
func (t *intTableau) initPhase1() {
	for j := range t.cost {
		c := &t.cost[j]
		c.SetInt64(0)
		if j >= t.nStruct && j < t.rhs {
			continue
		}
		for i := range t.a {
			c.Sub(c, &t.a[i][j])
		}
	}
}

// initPhase2 sets the reduced costs of the structural objective obj
// (entries −1, 0 or 1; zero on slacks and artificials) for the current
// basis, as numerators over d: d·obj_j − Σ_i obj_B(i)·a[i][j]. The
// artificial columns are blocked from entering.
func (t *intTableau) initPhase2(obj []int64) {
	t.phase2 = true
	for j := range t.cost {
		c := &t.cost[j]
		c.SetInt64(0)
		if j < t.nStruct && obj[j] != 0 {
			c.Mul(&t.d, t.p.SetInt64(obj[j]))
		}
	}
	for i, b := range t.basis {
		if b >= t.nStruct {
			continue
		}
		switch obj[b] {
		case 1:
			for j := range t.cost {
				t.cost[j].Sub(&t.cost[j], &t.a[i][j])
			}
		case -1:
			for j := range t.cost {
				t.cost[j].Add(&t.cost[j], &t.a[i][j])
			}
		}
	}
}

// iterateBland runs exact simplex with Bland's anti-cycling rule until
// optimality; returns false on unboundedness. The ratio test compares
// a[i][rhs]/a[i][c] by cross-multiplication (both denominators positive),
// breaking ties on the smaller basic column as the rational tableau does.
func (t *intTableau) iterateBland() bool {
	//lint:ignore ctxflow Bland's rule is anti-cycling: each basis repeats at most once, so the iteration count is bounded by the finite number of bases.
	for {
		last := t.n
		if t.phase2 {
			last = t.artStart
		}
		enter := -1
		for j := 0; j < last; j++ {
			if t.costSign(j) < 0 {
				enter = j
				break
			}
		}
		if enter < 0 {
			return true
		}
		s, sign := t.stored(enter)
		leave := -1
		for i := range t.a {
			if sign*t.a[i][s].Sign() <= 0 {
				continue
			}
			if leave < 0 {
				leave = i
				continue
			}
			t.p.Mul(&t.a[i][t.rhs], &t.a[leave][s])
			t.q.Mul(&t.a[leave][t.rhs], &t.a[i][s])
			if c := sign * t.p.Cmp(&t.q); c < 0 || (c == 0 && t.basis[i] < t.basis[leave]) {
				leave = i
			}
		}
		if leave < 0 {
			return false
		}
		t.pivot(leave, enter)
	}
}

// pivot makes logical column c basic in row r (see intTableau for the
// update).
func (t *intTableau) pivot(r, c int) {
	s, sign := t.stored(c)
	pr := t.a[r]
	setSigned(&t.piv, &pr[s], sign)
	for i := range t.a {
		if i != r {
			setSigned(&t.f, &t.a[i][s], sign)
			t.eliminate(t.a[i], pr)
		}
	}
	t.costOf(c, &t.f)
	t.eliminate(t.cost, pr)
	t.d.Set(&t.piv)
	if t.d.Sign() < 0 {
		// Only driveOutArtificials pivots on a negative entry; negating
		// every numerator with d keeps every value and d > 0.
		t.d.Neg(&t.d)
		for i := range t.a {
			for j := range t.a[i] {
				t.a[i][j].Neg(&t.a[i][j])
			}
		}
		for j := range t.cost {
			t.cost[j].Neg(&t.cost[j])
		}
	}
	t.basis[r] = c
}

// eliminate applies the fraction-free update to one non-pivot row whose
// entering-column entry is f: row[j] = (row[j]·piv − f·pr[j]) / d.
func (t *intTableau) eliminate(row, pr []big.Int) {
	if t.f.Sign() == 0 && t.piv.Cmp(&t.d) == 0 {
		return // the row is unchanged: row[j]·d/d
	}
	one := t.d.IsInt64() && t.d.Int64() == 1
	for j := range row {
		x, y := &row[j], &pr[j]
		switch {
		case y.Sign() == 0 || t.f.Sign() == 0:
			if x.Sign() == 0 {
				continue
			}
			t.p.Mul(x, &t.piv)
		case x.Sign() == 0:
			t.p.Mul(&t.f, y)
			t.p.Neg(&t.p)
		default:
			t.p.Mul(x, &t.piv)
			t.q.Mul(&t.f, y)
			t.p.Sub(&t.p, &t.q)
		}
		if one {
			x.Set(&t.p)
		} else {
			x.QuoRem(&t.p, &t.d, &t.rem)
		}
	}
}

// driveOutArtificials pivots every artificial still basic after phase 1
// (at zero level) out on the first nonzero non-artificial entry of its row.
func (t *intTableau) driveOutArtificials() {
	for i := range t.a {
		if t.basis[i] < t.artStart {
			continue
		}
		for j := 0; j < t.artStart; j++ {
			if s, sign := t.stored(j); sign != 0 && t.a[i][s].Sign() != 0 {
				t.pivot(i, j)
				break
			}
		}
	}
}
