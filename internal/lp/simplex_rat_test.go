package lp

import (
	"math"
	"math/big"
)

// solveMaxMarginRat is the reference exact solver the fraction-free
// tableau of SolveMaxMarginExact is tested against: the same rows, the
// same two-phase Bland's-rule simplex, over a big.Rat tableau that
// normalises every entry after every operation. It is slow (one gcd per
// entry update) but obviously exact, so any difference in X bits or
// error between the two solvers is a defect of the integer tableau.
func solveMaxMarginRat(p Problem) (Solution, error) {
	if err := p.validate(); err != nil {
		return Solution{}, err
	}
	k := p.NumVars
	nStruct := 2*k + 2

	type row struct {
		coef  []*big.Rat
		slack int // +1, -1 or 0
		rhs   *big.Rat
	}
	ratOf := func(f float64) *big.Rat { return new(big.Rat).SetFloat64(f) }
	var rows []row
	structRow := func(a []float64, w float64, marginSign int) []*big.Rat {
		c := make([]*big.Rat, nStruct)
		for j := 0; j < k; j++ {
			c[j] = ratOf(a[j])
			c[k+j] = new(big.Rat).Neg(c[j])
		}
		wr := ratOf(w)
		if marginSign < 0 {
			wr.Neg(wr)
		}
		c[2*k] = wr
		c[2*k+1] = new(big.Rat).Neg(wr)
		return c
	}
	for _, con := range p.Constraints {
		w := con.width()
		if con.IsEquality() {
			rows = append(rows, row{coef: structRow(con.Coeffs, 0, 1), slack: 0, rhs: ratOf(con.Lo)})
			continue
		}
		if !math.IsInf(con.Lo, 0) {
			rows = append(rows, row{coef: structRow(con.Coeffs, w, -1), slack: -1, rhs: ratOf(con.Lo)})
		}
		if !math.IsInf(con.Hi, 0) {
			rows = append(rows, row{coef: structRow(con.Coeffs, w, +1), slack: +1, rhs: ratOf(con.Hi)})
		}
	}
	capCoef := make([]*big.Rat, nStruct)
	for j := range capCoef {
		capCoef[j] = new(big.Rat)
	}
	capCoef[2*k] = big.NewRat(1, 1)
	capCoef[2*k+1] = big.NewRat(-1, 1)
	rows = append(rows, row{coef: capCoef, slack: +1, rhs: big.NewRat(1, 1)})

	m := len(rows)
	n := nStruct + m + m // slacks + artificials
	artStart := nStruct + m

	t := newRatTableau(m, n)
	for i, r := range rows {
		sign := 1
		if r.rhs.Sign() < 0 {
			sign = -1
		}
		for j, a := range r.coef {
			if a == nil || a.Sign() == 0 {
				continue
			}
			v := new(big.Rat).Set(a)
			if sign < 0 {
				v.Neg(v)
			}
			t.set(i, j, v)
		}
		if r.slack != 0 {
			s := big.NewRat(int64(r.slack*sign), 1)
			t.set(i, nStruct+i, s)
		}
		t.set(i, artStart+i, big.NewRat(1, 1))
		rhs := new(big.Rat).Set(r.rhs)
		if sign < 0 {
			rhs.Neg(rhs)
		}
		t.set(i, n, rhs)
		t.basis[i] = artStart + i
	}

	// Phase 1.
	t.initPhase1(artStart)
	if !t.iterateBland(artStart) {
		return Solution{}, ErrUnbounded
	}
	if t.cost[n].Sign() < 0 {
		return Solution{}, ErrInfeasible
	}
	t.driveOutArtificials(artStart)

	// Phase 2: minimize -(d+ - d-).
	obj := make([]*big.Rat, n+1)
	obj[2*k] = big.NewRat(-1, 1)
	obj[2*k+1] = big.NewRat(1, 1)
	t.initPhase2(obj, artStart)
	if !t.iterateBland(artStart) {
		return Solution{}, ErrUnbounded
	}

	x := make([]float64, k)
	vals := t.solution(n)
	for j := 0; j < k; j++ {
		d := new(big.Rat).Sub(vals[j], vals[k+j])
		x[j], _ = d.Float64()
	}
	// Report the margin of the float64-rounded solution (what the pipeline
	// will actually evaluate), not the exact-rational optimum.
	return Solution{X: x, Margin: p.MeasuredMargin(x)}, nil
}

// ratTableau is a dense exact simplex tableau. Zero entries are nil.
type ratTableau struct {
	m, n  int
	a     [][]*big.Rat // m × (n+1)
	cost  []*big.Rat   // n+1
	block []bool       // blocked (artificial) columns in phase 2
	basis []int
}

func newRatTableau(m, n int) *ratTableau {
	t := &ratTableau{m: m, n: n, basis: make([]int, m), block: make([]bool, n)}
	t.a = make([][]*big.Rat, m)
	for i := range t.a {
		t.a[i] = make([]*big.Rat, n+1)
	}
	t.cost = make([]*big.Rat, n+1)
	return t
}

func (t *ratTableau) set(i, j int, v *big.Rat) { t.a[i][j] = v }

func (t *ratTableau) at(i, j int) *big.Rat {
	if t.a[i][j] == nil {
		return ratZero
	}
	return t.a[i][j]
}

var ratZero = new(big.Rat)

func (t *ratTableau) initPhase1(artStart int) {
	for j := 0; j <= t.n; j++ {
		s := new(big.Rat)
		for i := 0; i < t.m; i++ {
			if t.a[i][j] != nil {
				s.Add(s, t.a[i][j])
			}
		}
		s.Neg(s)
		t.cost[j] = s
	}
	for j := artStart; j < t.n; j++ {
		t.cost[j] = new(big.Rat)
		t.block[j] = false
	}
}

func (t *ratTableau) initPhase2(obj []*big.Rat, artStart int) {
	for j := 0; j <= t.n; j++ {
		if obj[j] == nil {
			t.cost[j] = new(big.Rat)
		} else {
			t.cost[j] = new(big.Rat).Set(obj[j])
		}
	}
	for i, b := range t.basis {
		cb := t.cost[b]
		if cb.Sign() == 0 {
			continue
		}
		f := new(big.Rat).Set(cb)
		tmp := new(big.Rat)
		for j := 0; j <= t.n; j++ {
			if t.a[i][j] != nil && t.a[i][j].Sign() != 0 {
				t.cost[j].Sub(t.cost[j], tmp.Mul(f, t.a[i][j]))
			}
		}
	}
	for j := artStart; j < t.n; j++ {
		t.block[j] = true
	}
}

// iterateBland runs exact simplex with Bland's anti-cycling rule until
// optimality; returns false on unboundedness.
func (t *ratTableau) iterateBland(artStart int) bool {
	//lint:ignore ctxflow Bland's rule is anti-cycling: each basis repeats at most once, so the iteration count is bounded by the finite number of bases.
	for {
		enter := -1
		for j := 0; j < t.n; j++ {
			if !t.block[j] && t.cost[j].Sign() < 0 {
				enter = j
				break
			}
		}
		if enter < 0 {
			return true
		}
		leave := -1
		var best *big.Rat
		ratio := new(big.Rat)
		for i := 0; i < t.m; i++ {
			aie := t.a[i][enter]
			if aie == nil || aie.Sign() <= 0 {
				continue
			}
			ratio.Quo(t.at(i, t.n), aie)
			if leave < 0 || ratio.Cmp(best) < 0 ||
				(ratio.Cmp(best) == 0 && t.basis[i] < t.basis[leave]) {
				leave = i
				if best == nil {
					best = new(big.Rat)
				}
				best.Set(ratio)
			}
		}
		if leave < 0 {
			return false
		}
		t.pivot(leave, enter)
	}
}

func (t *ratTableau) pivot(r, c int) {
	pr := t.a[r]
	inv := new(big.Rat).Inv(pr[c])
	for j := 0; j <= t.n; j++ {
		if pr[j] != nil && pr[j].Sign() != 0 {
			pr[j].Mul(pr[j], inv)
		}
	}
	pr[c] = big.NewRat(1, 1)
	tmp := new(big.Rat)
	for i := 0; i < t.m; i++ {
		if i == r {
			continue
		}
		f := t.a[i][c]
		if f == nil || f.Sign() == 0 {
			continue
		}
		fc := new(big.Rat).Set(f)
		row := t.a[i]
		for j := 0; j <= t.n; j++ {
			if pr[j] == nil || pr[j].Sign() == 0 {
				continue
			}
			if row[j] == nil {
				row[j] = new(big.Rat)
			}
			row[j].Sub(row[j], tmp.Mul(fc, pr[j]))
		}
		row[c] = new(big.Rat)
	}
	if f := t.cost[c]; f.Sign() != 0 {
		fc := new(big.Rat).Set(f)
		for j := 0; j <= t.n; j++ {
			if pr[j] == nil || pr[j].Sign() == 0 {
				continue
			}
			t.cost[j].Sub(t.cost[j], tmp.Mul(fc, pr[j]))
		}
		t.cost[c] = new(big.Rat)
	}
	t.basis[r] = c
}

func (t *ratTableau) driveOutArtificials(artStart int) {
	for i := 0; i < t.m; i++ {
		if t.basis[i] < artStart {
			continue
		}
		for j := 0; j < artStart; j++ {
			if t.a[i][j] != nil && t.a[i][j].Sign() != 0 {
				t.pivot(i, j)
				break
			}
		}
	}
}

func (t *ratTableau) solution(n int) []*big.Rat {
	z := make([]*big.Rat, n)
	for j := range z {
		z[j] = new(big.Rat)
	}
	for i, b := range t.basis {
		if b < n {
			z[b] = new(big.Rat).Set(t.at(i, t.n))
		}
	}
	return z
}
