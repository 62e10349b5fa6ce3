package game

import (
	"fmt"
	"math"

	"github.com/auditgames/sag/internal/dist"
	"github.com/auditgames/sag/internal/lp"
)

// This file generalizes the audit game to multiple defender resource
// classes, the direction of Blocki et al., "Audit games with multiple
// defender resources" (AAAI 2015), which the paper builds on. A hospital
// compliance office is not one undifferentiated budget: senior
// investigators can work any alert type but are scarce; junior staff are
// plentiful but certified only for routine types; an external firm can be
// engaged for VIP cases at a premium.
//
// Each ResourceClass has its own budget, a capability mask over alert
// types, and a cost multiplier against the instance's base audit costs.
// Coverage adds across classes: θ^t = Σ_r κ^t · A^{t,r} / (V^t·Mult_r),
// where A^{t,r} is the budget of class r allocated to type t. The SSE is
// computed with the same multiple-LP method as the base game, with one
// allocation variable per (type, class) pair.

// ResourceClass is one kind of audit capacity.
type ResourceClass struct {
	// Name is a label for reports.
	Name string
	// Budget is this class's own audit budget.
	Budget float64
	// CanAudit masks the alert types the class may audit (nil = all).
	CanAudit []bool
	// CostMultiplier scales the instance's per-type audit cost for this
	// class (1 = baseline; must be positive).
	CostMultiplier float64
}

// ResourceResult is the SSE of the multi-resource audit game.
type ResourceResult struct {
	BestType int
	Coverage []float64
	// Allocation[r][t] is class r's budget assigned to type t.
	Allocation      [][]float64
	DefenderUtility float64
	AttackerUtility float64
}

// SolveResourceSSE computes the online SSE with per-class budgets. futures
// provides the Poisson future-count distribution per type, as in
// SolveOnlineSSE.
func SolveResourceSSE(inst *Instance, classes []ResourceClass, futures []dist.Poisson) (*ResourceResult, error) {
	if len(futures) != inst.NumTypes() {
		return nil, fmt.Errorf("game: %d future distributions for %d types", len(futures), inst.NumTypes())
	}
	if len(classes) == 0 {
		return nil, fmt.Errorf("game: need at least one resource class")
	}
	k := inst.NumTypes()
	for ci, c := range classes {
		if !finiteNonNegative(c.Budget) {
			return nil, fmt.Errorf("game: class %d: invalid budget %g", ci, c.Budget)
		}
		if !(c.CostMultiplier > 0) || math.IsInf(c.CostMultiplier, 0) {
			return nil, fmt.Errorf("game: class %d: invalid cost multiplier %g", ci, c.CostMultiplier)
		}
		if c.CanAudit != nil && len(c.CanAudit) != k {
			return nil, fmt.Errorf("game: class %d: capability mask has %d entries for %d types", ci, len(c.CanAudit), k)
		}
	}
	coeffs := make([]float64, k)
	attackable := make([]bool, k)
	for t, f := range futures {
		coeffs[t] = f.InverseMeanCoefficient()
		attackable[t] = f.Lambda > 0
	}
	anyAttackable := false
	for _, a := range attackable {
		anyAttackable = anyAttackable || a
	}
	if !anyAttackable {
		return &ResourceResult{
			BestType:   -1,
			Coverage:   make([]float64, k),
			Allocation: zeroAllocation(len(classes), k),
		}, nil
	}

	var best *ResourceResult
	for t := 0; t < k; t++ {
		if !attackable[t] {
			continue
		}
		res, ok, err := solveResourceCandidate(inst, classes, coeffs, attackable, t)
		if err != nil {
			return nil, err
		}
		if ok && (best == nil || res.DefenderUtility > best.DefenderUtility+1e-12) {
			best = res
		}
	}
	if best == nil {
		return nil, fmt.Errorf("game: no feasible best-response candidate (internal invariant violated)")
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
