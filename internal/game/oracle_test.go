package game

import (
	"fmt"

	"github.com/auditgames/sag/internal/dist"
	"github.com/auditgames/sag/internal/lp"
)

// simplexSSE is the differential oracle for solveSSE: the multiple-LP method
// the serving path used before the closed form — one dense two-phase simplex
// per candidate best-response type, reduced in ascending type order with the
// same "> best + 1e-12" tie-break. It lives in a _test.go file so no
// production path can reach the simplex for LP (2).
func simplexSSE(inst *Instance, budget float64, coeffs []float64, attackable []bool) (*Result, error) {
	k := inst.NumTypes()
	feasible := make([]bool, k)
	var stats SolveStats
	best := (*Result)(nil)
	for t := 0; t < k; t++ {
		if !attackable[t] {
			continue
		}
		res, ok, err := solveCandidate(inst, budget, coeffs, attackable, t)
		if err != nil {
			return nil, err
		}
		stats.LPSolves++
		feasible[t] = ok
		if ok && (best == nil || res.DefenderUtility > best.DefenderUtility+1e-12) {
			best = res
		}
	}
	if stats.LPSolves == 0 {
		return &Result{
			BestType:          -1,
			Coverage:          make([]float64, k),
			Allocation:        make([]float64, k),
			CandidateFeasible: feasible,
		}, nil
	}
	if best == nil {
		return nil, fmt.Errorf("game: no feasible best-response candidate (internal invariant violated)")
	}
	best.CandidateFeasible = feasible
	best.Stats = stats
	return best, nil
}

// solveCandidate solves LP (2) assuming alert type t is the attacker's best
// response. Variables are the budget allocations B^0..B^{k-1}.
func solveCandidate(inst *Instance, budget float64, coeffs []float64, attackable []bool, t int) (*Result, bool, error) {
	k := inst.NumTypes()
	prob := lp.New(lp.Maximize, k)

	// slope[j] dθ^j/dB^j = coeffs[j]/V^j.
	slope := make([]float64, k)
	for j := 0; j < k; j++ {
		slope[j] = coeffs[j] / inst.AuditCosts[j]
	}

	// Objective: θ^t·U_dc + (1−θ^t)·U_du = slope[t]·(U_dc−U_du)·B^t + U_du.
	pt := inst.Payoffs[t]
	obj := make([]float64, k)
	obj[t] = slope[t] * (pt.DefenderCovered - pt.DefenderUncovered)
	if err := prob.SetObjective(obj); err != nil {
		return nil, false, err
	}

	// Bounds: B^j ∈ [0, V^j/coeffs[j]] keeps θ^j ≤ 1 (and ≤ budget
	// implicitly via the shared budget row). A zero coefficient means
	// coverage never accrues for type j (zero expected future alerts), so
	// the θ^j ≤ 1 cap is vacuous and only the budget bounds B^j — dividing
	// by it would inject ±Inf into the variable bounds.
	for j := 0; j < k; j++ {
		hi := budget
		if coeffs[j] > 0 {
			if c := inst.AuditCosts[j] / coeffs[j]; c < hi {
				hi = c
			}
		}
		if err := prob.SetBounds(j, 0, hi); err != nil {
			return nil, false, err
		}
	}

	// Best-response rows: for every attackable j ≠ t,
	// θ^t·U_ac^t + (1−θ^t)·U_au^t ≥ θ^j·U_ac^j + (1−θ^j)·U_au^j
	// ⇔ slope[t]·(U_ac^t−U_au^t)·B^t − slope[j]·(U_ac^j−U_au^j)·B^j ≥ U_au^j − U_au^t.
	for j := 0; j < k; j++ {
		if j == t || !attackable[j] {
			continue
		}
		pj := inst.Payoffs[j]
		row := make([]float64, k)
		row[t] = slope[t] * (pt.AttackerCovered - pt.AttackerUncovered)
		row[j] = -slope[j] * (pj.AttackerCovered - pj.AttackerUncovered)
		rhs := pj.AttackerUncovered - pt.AttackerUncovered
		if err := prob.AddConstraint(row, lp.GE, rhs); err != nil {
			return nil, false, err
		}
	}

	// Shared budget: Σ B^j ≤ budget.
	ones := make([]float64, k)
	for j := range ones {
		ones[j] = 1
	}
	if err := prob.AddConstraint(ones, lp.LE, budget); err != nil {
		return nil, false, err
	}

	sol, err := lp.Solve(prob)
	if err != nil {
		return nil, false, err
	}
	if sol.Status != lp.Optimal {
		return nil, false, nil
	}

	cov := make([]float64, k)
	for j := 0; j < k; j++ {
		cov[j] = clamp01(slope[j] * sol.X[j])
	}
	res := &Result{
		BestType:        t,
		Coverage:        cov,
		Allocation:      sol.X,
		DefenderUtility: pt.DefenderExpected(cov[t]),
		AttackerUtility: pt.AttackerExpected(cov[t]),
	}
	// The shared budget row is the last constraint added above.
	if n := len(sol.Duals); n > 0 {
		res.BudgetShadowPrice = sol.Duals[n-1]
	}
	return res, true, nil
}

// resourceLP is the differential oracle for SolveResourceSSE: the
// multiple-LP method with one allocation variable per (type, class) pair
// that the library used before the Hall-subset water level — one simplex per
// attackable candidate, reduced in ascending type order with the same
// "> best + 1e-12" tie-break. Inputs are SolveResourceSSE's, already
// validated by it.
func resourceLP(inst *Instance, classes []ResourceClass, futures []dist.Poisson) (*ResourceResult, error) {
	k := inst.NumTypes()
	coeffs := make([]float64, k)
	attackable := make([]bool, k)
	for t, f := range futures {
		coeffs[t] = f.InverseMeanCoefficient()
		attackable[t] = f.Lambda > 0
	}
	best := &ResourceResult{BestType: -1, Coverage: make([]float64, k), Allocation: zeroAllocation(len(classes), k)}
	for t := 0; t < k; t++ {
		if !attackable[t] {
			continue
		}
		res, ok, err := solveResourceCandidate(inst, classes, coeffs, attackable, t)
		if err != nil {
			return nil, err
		}
		if ok && (best.BestType < 0 || res.DefenderUtility > best.DefenderUtility+1e-12) {
			best = res
		}
	}
	return best, nil
}

func zeroAllocation(classes, types int) [][]float64 {
	out := make([][]float64, classes)
	for i := range out {
		out[i] = make([]float64, types)
	}
	return out
}

// solveResourceCandidate solves the LP forcing type t to be the best
// response. Variables are indexed var(t', r) = r·k + t'.
func solveResourceCandidate(inst *Instance, classes []ResourceClass, coeffs []float64, attackable []bool, t int) (*ResourceResult, bool, error) {
	k := inst.NumTypes()
	nc := len(classes)
	nv := k * nc
	prob := lp.New(lp.Maximize, nv)

	// slope(t', r): dθ^{t'} / dA^{t',r}, zero when the class cannot audit
	// the type (enforced via a [0,0] bound).
	slope := func(tt, r int) float64 {
		return coeffs[tt] / (inst.AuditCosts[tt] * classes[r].CostMultiplier)
	}
	varIdx := func(tt, r int) int { return r*k + tt }
	for r, c := range classes {
		for tt := 0; tt < k; tt++ {
			hi := c.Budget
			if c.CanAudit != nil && !c.CanAudit[tt] {
				hi = 0
			}
			if err := prob.SetBounds(varIdx(tt, r), 0, hi); err != nil {
				return nil, false, err
			}
		}
	}

	// Objective: θ^t·(U_dc−U_du) + const.
	pt := inst.Payoffs[t]
	obj := make([]float64, nv)
	for r := range classes {
		obj[varIdx(t, r)] = slope(t, r) * (pt.DefenderCovered - pt.DefenderUncovered)
	}
	if err := prob.SetObjective(obj); err != nil {
		return nil, false, err
	}

	// θ^{t'} ≤ 1 rows (coverage now sums across classes, so variable
	// bounds alone cannot cap it).
	for tt := 0; tt < k; tt++ {
		row := make([]float64, nv)
		for r := range classes {
			row[varIdx(tt, r)] = slope(tt, r)
		}
		if err := prob.AddConstraint(row, lp.LE, 1); err != nil {
			return nil, false, err
		}
	}

	// Best-response rows.
	for j := 0; j < k; j++ {
		if j == t || !attackable[j] {
			continue
		}
		pj := inst.Payoffs[j]
		row := make([]float64, nv)
		for r := range classes {
			row[varIdx(t, r)] += slope(t, r) * (pt.AttackerCovered - pt.AttackerUncovered)
			row[varIdx(j, r)] -= slope(j, r) * (pj.AttackerCovered - pj.AttackerUncovered)
		}
		if err := prob.AddConstraint(row, lp.GE, pj.AttackerUncovered-pt.AttackerUncovered); err != nil {
			return nil, false, err
		}
	}

	// Per-class budget rows.
	for r, c := range classes {
		row := make([]float64, nv)
		for tt := 0; tt < k; tt++ {
			row[varIdx(tt, r)] = 1
		}
		if err := prob.AddConstraint(row, lp.LE, c.Budget); err != nil {
			return nil, false, err
		}
	}

	sol, err := lp.Solve(prob)
	if err != nil {
		return nil, false, err
	}
	if sol.Status != lp.Optimal {
		return nil, false, nil
	}

	cov := make([]float64, k)
	alloc := zeroAllocation(nc, k)
	for r := range classes {
		for tt := 0; tt < k; tt++ {
			a := sol.X[varIdx(tt, r)]
			alloc[r][tt] = a
			cov[tt] += slope(tt, r) * a
		}
	}
	for tt := range cov {
		cov[tt] = clamp01(cov[tt])
	}
	return &ResourceResult{
		BestType:        t,
		Coverage:        cov,
		Allocation:      alloc,
		DefenderUtility: pt.DefenderExpected(cov[t]),
		AttackerUtility: pt.AttackerExpected(cov[t]),
	}, true, nil
}

func clamp01(x float64) float64 { return min(max(x, 0), 1) }
