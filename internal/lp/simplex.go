package lp

import (
	"errors"
	"math"
)

// ErrNumerical is returned when the simplex iteration limit is exceeded,
// which indicates either extreme degeneracy or ill-conditioned input far
// outside the ranges this solver is designed for.
var ErrNumerical = errors.New("lp: iteration limit exceeded (numerical trouble)")

// Solve optimizes the problem with a dense two-phase primal simplex. It
// never mutates p. The returned Solution has Status Optimal, Infeasible, or
// Unbounded; X and Objective are populated only for Optimal.
func Solve(p *Problem) (*Solution, error) {
	std, err := toStandard(p)
	if err != nil {
		return nil, err
	}
	tab := newTableau(std)

	// Phase 1: minimize the sum of artificial variables to find a basic
	// feasible solution.
	var stats Stats
	if tab.numArt > 0 {
		tab.loadPhase1Costs()
		n, status := tab.iterate()
		stats.Phase1Iterations = n
		if status == iterLimit {
			stats.Pivots = tab.pivots
			return nil, ErrNumerical
		}
		if tab.objValue() > 1e-7 {
			stats.Pivots = tab.pivots
			return &Solution{Status: Infeasible, Iterations: stats.Iterations(), Stats: stats}, nil
		}
		tab.driveOutArtificials()
	}

	// Phase 2: minimize the (converted) true objective.
	tab.loadPhase2Costs(std.c)
	n, status := tab.iterate()
	stats.Phase2Iterations = n
	stats.Pivots = tab.pivots
	switch status {
	case iterLimit:
		return nil, ErrNumerical
	case unboundedIter:
		return &Solution{Status: Unbounded, Iterations: stats.Iterations(), Stats: stats}, nil
	}

	y := tab.extract()
	x := std.recover(y)
	obj := p.ObjectiveAt(x)
	// Duals: internal minimization duals, flipped back for Maximize.
	duals := tab.duals(len(p.constraints))
	if p.sense == Maximize {
		for i := range duals {
			duals[i] = -duals[i]
		}
	}
	return &Solution{Status: Optimal, X: x, Objective: obj, Duals: duals, Iterations: stats.Iterations(), Stats: stats}, nil
}

// standardForm is a minimization problem over nonnegative variables y with
// equality/inequality rows, plus the bookkeeping needed to map y back to the
// caller's x.
type standardForm struct {
	c    []float64    // phase-2 costs over y
	rows []stdRow     // constraints over y, rhs already nonnegative where possible
	vmap []varMapping // one mapping per original variable
	ny   int          // number of y variables
}

type stdRow struct {
	coeffs []float64
	rel    Rel
	rhs    float64
}

// varMapping records how original variable i was rewritten.
//
//	shifted:  x = lo + y[a]
//	negated:  x = hi - y[a]
//	split:    x = y[a] - y[b]
type varMapping struct {
	kind  int // 0 shifted, 1 negated, 2 split
	a, b  int
	shift float64
}

const (
	vmShifted = iota
	vmNegated
	vmSplit
)

// toStandard rewrites the problem so every variable is nonnegative and the
// objective is a minimization. Finite upper bounds become explicit rows.
func toStandard(p *Problem) (*standardForm, error) {
	std := &standardForm{vmap: make([]varMapping, p.n)}
	type ub struct {
		y   int
		val float64
	}
	var ubs []ub
	for i := 0; i < p.n; i++ {
		lo, hi := p.lower[i], p.upper[i]
		switch {
		case !math.IsInf(lo, -1):
			std.vmap[i] = varMapping{kind: vmShifted, a: std.ny, shift: lo}
			if !math.IsInf(hi, 1) {
				ubs = append(ubs, ub{std.ny, hi - lo})
			}
			std.ny++
		case !math.IsInf(hi, 1):
			std.vmap[i] = varMapping{kind: vmNegated, a: std.ny, shift: hi}
			std.ny++
		default:
			std.vmap[i] = varMapping{kind: vmSplit, a: std.ny, b: std.ny + 1}
			std.ny += 2
		}
	}

	// Costs. Maximize c·x == minimize (-c)·x.
	sign := 1.0
	if p.sense == Maximize {
		sign = -1.0
	}
	std.c = make([]float64, std.ny)
	for i, m := range std.vmap {
		ci := sign * p.objective[i]
		switch m.kind {
		case vmShifted:
			std.c[m.a] += ci
		case vmNegated:
			std.c[m.a] -= ci
		case vmSplit:
			std.c[m.a] += ci
			std.c[m.b] -= ci
		}
	}

	// Constraints, rewritten over y.
	for _, con := range p.constraints {
		coeffs := make([]float64, std.ny)
		rhs := con.RHS
		for i, a := range con.Coeffs {
			if a == 0 {
				continue
			}
			m := std.vmap[i]
			switch m.kind {
			case vmShifted:
				coeffs[m.a] += a
				rhs -= a * m.shift
			case vmNegated:
				coeffs[m.a] -= a
				rhs -= a * m.shift
			case vmSplit:
				coeffs[m.a] += a
				coeffs[m.b] -= a
			}
		}
		std.rows = append(std.rows, stdRow{coeffs, con.Rel, rhs})
	}
	// Upper bounds y <= u as rows.
	for _, u := range ubs {
		coeffs := make([]float64, std.ny)
		coeffs[u.y] = 1
		std.rows = append(std.rows, stdRow{coeffs, LE, u.val})
	}
	if std.ny == 0 {
		return nil, errors.New("lp: all variables fixed out of the problem")
	}
	return std, nil
}

// recover maps a y-solution back to original variables.
func (s *standardForm) recover(y []float64) []float64 {
	x := make([]float64, len(s.vmap))
	for i, m := range s.vmap {
		switch m.kind {
		case vmShifted:
			x[i] = m.shift + y[m.a]
		case vmNegated:
			x[i] = m.shift - y[m.a]
		case vmSplit:
			x[i] = y[m.a] - y[m.b]
		}
	}
	return x
}

// tableau is a dense simplex tableau kept in canonical form: each basic
// variable's column is a unit vector and the cost row holds reduced costs.
type tableau struct {
	m, ncols int // rows, total columns (y + slack + artificial)
	ny       int
	numArt   int
	artStart int
	rows     [][]float64 // m rows, each ncols long
	rhs      []float64
	cost     []float64 // reduced costs, ncols long
	costRHS  float64   // negative of current objective value
	basis    []int     // basic column per row
	banned   []bool    // columns that may never re-enter (artificials in phase 2)
	pivots   int       // full pivot eliminations performed (all phases + drive-out)
	// dualCol/dualSign recover the dual value of row i from the reduced
	// cost of its marker column: y_i = dualSign[i] · cost[dualCol[i]]
	// (in the internal minimization orientation, before rhs-normalization
	// sign correction, which dualSign folds in).
	dualCol  []int
	dualSign []float64
}

func newTableau(std *standardForm) *tableau {
	m := len(std.rows)
	// Count slack and artificial columns.
	numSlack, numArt := 0, 0
	for _, r := range std.rows {
		rel, rhs := r.rel, r.rhs
		if rhs < 0 { // normalizing flips the relation
			switch rel {
			case LE:
				rel = GE
			case GE:
				rel = LE
			}
		}
		switch rel {
		case LE:
			numSlack++
		case GE:
			numSlack++
			numArt++
		case EQ:
			numArt++
		}
	}
	t := &tableau{
		m:        m,
		ny:       std.ny,
		numArt:   numArt,
		artStart: std.ny + numSlack,
		ncols:    std.ny + numSlack + numArt,
		rhs:      make([]float64, m),
		basis:    make([]int, m),
	}
	t.rows = make([][]float64, m)
	t.cost = make([]float64, t.ncols)
	t.banned = make([]bool, t.ncols)
	t.dualCol = make([]int, m)
	t.dualSign = make([]float64, m)
	slack, art := std.ny, t.artStart
	for i, r := range std.rows {
		row := make([]float64, t.ncols)
		rel, rhs := r.rel, r.rhs
		sign := 1.0
		if rhs < 0 {
			sign = -1.0
			rhs = -rhs
			switch rel {
			case LE:
				rel = GE
			case GE:
				rel = LE
			}
		}
		for j, a := range r.coeffs {
			row[j] = sign * a
		}
		switch rel {
		case LE:
			row[slack] = 1
			t.basis[i] = slack
			// Slack coefficient +1, zero cost: y = −cost[slack].
			t.dualCol[i], t.dualSign[i] = slack, -sign
			slack++
		case GE:
			row[slack] = -1
			// Surplus coefficient −1: y = +cost[surplus].
			t.dualCol[i], t.dualSign[i] = slack, sign
			slack++
			row[art] = 1
			t.basis[i] = art
			art++
		case EQ:
			row[art] = 1
			t.basis[i] = art
			// Artificial coefficient +1: y = −cost[artificial].
			t.dualCol[i], t.dualSign[i] = art, -sign
			art++
		}
		t.rows[i] = row
		t.rhs[i] = rhs
	}
	return t
}

// duals extracts the dual value of each of the first n rows in the
// internal minimization orientation.
func (t *tableau) duals(n int) []float64 {
	out := make([]float64, n)
	for i := 0; i < n && i < t.m; i++ {
		out[i] = t.dualSign[i] * t.cost[t.dualCol[i]]
	}
	return out
}

// loadPhase1Costs sets the cost row for minimizing the sum of artificials,
// already reduced against the current (artificial) basis.
func (t *tableau) loadPhase1Costs() {
	for j := range t.cost {
		t.cost[j] = 0
	}
	for j := t.artStart; j < t.ncols; j++ {
		t.cost[j] = 1
	}
	t.costRHS = 0
	// Reduce: subtract rows whose basic variable has cost 1.
	for i, b := range t.basis {
		if b >= t.artStart {
			for j := 0; j < t.ncols; j++ {
				t.cost[j] -= t.rows[i][j]
			}
			t.costRHS -= t.rhs[i]
		}
	}
}

// loadPhase2Costs sets the cost row for the true objective c over y
// variables (slacks and artificials cost 0) and bans artificials from
// re-entering the basis.
func (t *tableau) loadPhase2Costs(c []float64) {
	for j := range t.cost {
		t.cost[j] = 0
	}
	copy(t.cost, c)
	t.costRHS = 0
	for j := t.artStart; j < t.ncols; j++ {
		t.banned[j] = true
	}
	for i, b := range t.basis {
		cb := 0.0
		if b < len(c) {
			cb = c[b]
		}
		if cb != 0 {
			for j := 0; j < t.ncols; j++ {
				t.cost[j] -= cb * t.rows[i][j]
			}
			t.costRHS -= cb * t.rhs[i]
		}
	}
}

// objValue returns the current objective value of the loaded cost row.
func (t *tableau) objValue() float64 { return -t.costRHS }

type iterStatus int

const (
	optimalIter iterStatus = iota
	unboundedIter
	iterLimit
)

// iterate runs simplex pivots until optimality, unboundedness or the
// iteration cap. It returns the pivot count and the terminal status.
func (t *tableau) iterate() (int, iterStatus) {
	maxIter := 2000 + 200*(t.m+t.ncols)
	blandAfter := maxIter / 2
	for iter := 0; iter < maxIter; iter++ {
		bland := iter >= blandAfter
		j := t.chooseEntering(bland)
		if j < 0 {
			return iter, optimalIter
		}
		i := t.chooseLeaving(j)
		if i < 0 {
			return iter, unboundedIter
		}
		t.pivot(i, j)
	}
	return maxIter, iterLimit
}

// chooseEntering returns the entering column index, or -1 at optimality.
// Dantzig pricing by default; Bland's rule (lowest eligible index) when
// requested, which guarantees anti-cycling.
func (t *tableau) chooseEntering(bland bool) int {
	best, bestVal := -1, -feasTol
	for j := 0; j < t.ncols; j++ {
		if t.banned[j] {
			continue
		}
		if c := t.cost[j]; c < bestVal {
			if bland {
				return j
			}
			best, bestVal = j, c
		}
	}
	return best
}

// chooseLeaving performs the ratio test for entering column j, returning the
// pivot row or -1 if the direction is unbounded. Ties break toward the row
// whose basic variable has the smallest index (lexicographic flavor that
// cooperates with Bland's rule).
func (t *tableau) chooseLeaving(j int) int {
	bestRow := -1
	bestRatio := math.Inf(1)
	for i := 0; i < t.m; i++ {
		a := t.rows[i][j]
		if a <= feasTol {
			continue
		}
		r := t.rhs[i] / a
		if r < bestRatio-feasTol || (r < bestRatio+feasTol && (bestRow < 0 || t.basis[i] < t.basis[bestRow])) {
			bestRow, bestRatio = i, r
		}
	}
	return bestRow
}

// pivot makes column j basic in row i with full-row elimination.
func (t *tableau) pivot(i, j int) {
	t.pivots++
	piv := t.rows[i][j]
	inv := 1.0 / piv
	row := t.rows[i]
	for k := 0; k < t.ncols; k++ {
		row[k] *= inv
	}
	t.rhs[i] *= inv
	row[j] = 1 // kill round-off on the pivot element
	for r := 0; r < t.m; r++ {
		if r == i {
			continue
		}
		f := t.rows[r][j]
		if f == 0 {
			continue
		}
		tr := t.rows[r]
		for k := 0; k < t.ncols; k++ {
			tr[k] -= f * row[k]
		}
		tr[j] = 0
		t.rhs[r] -= f * t.rhs[i]
		if t.rhs[r] < 0 && t.rhs[r] > -feasTol {
			t.rhs[r] = 0
		}
	}
	if f := t.cost[j]; f != 0 {
		for k := 0; k < t.ncols; k++ {
			t.cost[k] -= f * row[k]
		}
		t.cost[j] = 0
		t.costRHS -= f * t.rhs[i]
	}
	t.basis[i] = j
}

// driveOutArtificials removes artificial variables that remain basic at
// level zero after phase 1 by pivoting in any eligible structural column;
// redundant rows (all structural coefficients zero) are neutralized.
func (t *tableau) driveOutArtificials() {
	for i := 0; i < t.m; i++ {
		if t.basis[i] < t.artStart {
			continue
		}
		pivoted := false
		for j := 0; j < t.artStart; j++ {
			if math.Abs(t.rows[i][j]) > 1e-7 {
				t.pivot(i, j)
				pivoted = true
				break
			}
		}
		if !pivoted {
			// Redundant row: zero it so it can never constrain a pivot.
			for k := range t.rows[i] {
				t.rows[i][k] = 0
			}
			t.rhs[i] = 0
		}
	}
}

// extract reads the y-solution out of the tableau.
func (t *tableau) extract() []float64 {
	y := make([]float64, t.ny)
	for i, b := range t.basis {
		if b < t.ny {
			y[b] = t.rhs[i]
		}
	}
	for i, v := range y {
		if v < 0 && v > -1e-7 {
			y[i] = 0
		}
	}
	return y
}
