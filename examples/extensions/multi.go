package main

import (
	"fmt"
	"math"

	sag "github.com/auditgames/sag"
	"github.com/auditgames/sag/internal/lp"
)

// This file is the multi-attacker extension the paper's conclusions propose
// ("we focus on the one attacker setting as a pilot study of SAG, but it is
// necessary in the next step to investigate the situation of multiple
// attackers"), solver and LP together: nothing serves it, so it lives with
// the one program that runs it.
//
// Model: n attackers act simultaneously and independently against the same
// committed coverage vector. Attacker i may only attack alert types in his
// capability set C_i (e.g. a billing clerk cannot trigger a co-worker
// alert in cardiology). Each attacker best-responds separately; the
// auditor's utility is the sum over attackers of her victim-alert utility.
// The equilibrium is computed by the natural generalization of the
// multiple-LP method: enumerate joint best-response profiles (t_1..t_n),
// one LP per profile with every attacker's best-response constraint
// enforced, keep the feasible profile with the best total auditor utility.
//
// Unlike the library's base and multi-resource games (closed forms, DESIGN
// §3) this one has no single walk. Attacker i has his own water level u_i
// over his menu. Disjoint single-type menus make a fractional knapsack (fill
// in order of (U_dc−U_du)·slope); one shared menu is the base game's single
// water level; but a type on two menus is covered to the lower of its
// attackers' levels, so mixed menus couple a knapsack order to a water level
// through a min, and the optimum can sit where one attacker switches best
// response inside another's segment. So it stays on the simplex.

// MultiResult is the Strong Stackelberg Equilibrium of the multi-attacker
// audit game. As with sag.SSEResult, utilities are LP objectives that assume
// every attacker goes through with his attack; callers that model participation
// (an attacker with negative best-response utility stays out) should clamp
// per-attacker contributions the way core.participationAwareUtility does
// for the single-attacker game.
type MultiResult struct {
	// BestTypes[i] is attacker i's equilibrium alert type (index into the
	// instance), or -1 when attacker i has no attackable type.
	BestTypes []int
	// Coverage and Allocation are as in sag.SSEResult.
	Coverage   []float64
	Allocation []float64
	// DefenderUtility is the auditor's total expected utility across all
	// attackers' victim alerts.
	DefenderUtility float64
	// AttackerUtilities[i] is attacker i's expected utility (0 when he has
	// no attackable type).
	AttackerUtilities []float64
}

// MaxJointProfiles bounds the best-response enumeration.
const MaxJointProfiles = 1 << 14

// SolveMultiAttackerSSE computes the multi-attacker online SSE. futures
// gives the Poisson future-count distribution per type; capabilities[i]
// lists the types attacker i can use (nil or empty means "all types").
func SolveMultiAttackerSSE(inst *sag.Instance, budget float64, futures []sag.Poisson, capabilities [][]int) (*MultiResult, error) {
	if len(futures) != inst.NumTypes() {
		return nil, fmt.Errorf("game: %d future distributions for %d types", len(futures), inst.NumTypes())
	}
	if !(budget >= 0) || math.IsInf(budget, 1) {
		return nil, fmt.Errorf("game: invalid budget %g", budget)
	}
	if len(capabilities) == 0 {
		return nil, fmt.Errorf("game: need at least one attacker")
	}
	coeffs := make([]float64, inst.NumTypes())
	attackable := make([]bool, inst.NumTypes())
	for t, f := range futures {
		coeffs[t] = f.InverseMeanCoefficient()
		attackable[t] = f.Lambda > 0
	}

	// Per-attacker candidate menus: capability ∩ attackable.
	menus := make([][]int, len(capabilities))
	profileCount := 1
	for i, caps := range capabilities {
		if len(caps) == 0 {
			for t := 0; t < inst.NumTypes(); t++ {
				if attackable[t] {
					menus[i] = append(menus[i], t)
				}
			}
		} else {
			seen := map[int]bool{}
			for _, t := range caps {
				if t < 0 || t >= inst.NumTypes() {
					return nil, fmt.Errorf("game: attacker %d capability %d out of range", i, t)
				}
				if seen[t] {
					return nil, fmt.Errorf("game: attacker %d lists type %d twice", i, t)
				}
				seen[t] = true
				if attackable[t] {
					menus[i] = append(menus[i], t)
				}
			}
		}
		if len(menus[i]) > 0 {
			profileCount *= len(menus[i])
		}
		if profileCount > MaxJointProfiles {
			return nil, fmt.Errorf("game: joint best-response space exceeds %d profiles", MaxJointProfiles)
		}
	}

	n := len(capabilities)
	best := (*MultiResult)(nil)
	profile := make([]int, n) // index into each menu; -1 handled below
	var rec func(i int) error
	rec = func(i int) error {
		if i == n {
			res, ok, err := solveJointProfile(inst, budget, coeffs, menus, profile)
			if err != nil {
				return err
			}
			if ok && (best == nil || res.DefenderUtility > best.DefenderUtility+1e-12) {
				best = res
			}
			return nil
		}
		if len(menus[i]) == 0 {
			profile[i] = -1
			return rec(i + 1)
		}
		for c := range menus[i] {
			profile[i] = c
			if err := rec(i + 1); err != nil {
				return err
			}
		}
		return nil
	}
	if err := rec(0); err != nil {
		return nil, err
	}
	if best == nil {
		// Every attacker had an empty menu: vacuous game.
		return &MultiResult{
			BestTypes:         fillSlice(n, -1),
			Coverage:          make([]float64, inst.NumTypes()),
			Allocation:        make([]float64, inst.NumTypes()),
			AttackerUtilities: make([]float64, n),
		}, nil
	}
	return best, nil
}

func fillSlice(n, v int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = v
	}
	return out
}

// newAllocationProblem builds the shared frame of every coverage LP: one
// budget-allocation variable per type, bounded so θ ≤ 1, plus the shared
// budget row.
func newAllocationProblem(inst *sag.Instance, budget float64, coeffs []float64) (*lp.Problem, error) {
	k := inst.NumTypes()
	prob := lp.New(lp.Maximize, k)
	for j := 0; j < k; j++ {
		hi := budget
		if cap := inst.AuditCosts[j] / coeffs[j]; cap < hi {
			hi = cap
		}
		if err := prob.SetBounds(j, 0, hi); err != nil {
			return nil, err
		}
	}
	ones := make([]float64, k)
	for j := range ones {
		ones[j] = 1
	}
	if err := prob.AddConstraint(ones, lp.LE, budget); err != nil {
		return nil, err
	}
	return prob, nil
}

// solveAllocation runs the LP and reports (allocation, feasible, error).
func solveAllocation(prob *lp.Problem) ([]float64, bool, error) {
	sol, err := lp.Solve(prob)
	if err != nil {
		return nil, false, err
	}
	if sol.Status != lp.Optimal {
		return nil, false, nil
	}
	return sol.X, true, nil
}

// solveJointProfile solves the coverage LP for one joint best-response
// profile (profile[i] indexes menus[i]; -1 = attacker i inactive).
func solveJointProfile(inst *sag.Instance, budget float64, coeffs []float64, menus [][]int, profile []int) (*MultiResult, bool, error) {
	k := inst.NumTypes()
	prob, err := newAllocationProblem(inst, budget, coeffs)
	if err != nil {
		return nil, false, err
	}
	slope := make([]float64, k)
	for j := 0; j < k; j++ {
		slope[j] = coeffs[j] / inst.AuditCosts[j]
	}

	// Objective: sum of defender utilities at each active attacker's type.
	obj := make([]float64, k)
	for i, c := range profile {
		if c < 0 {
			continue
		}
		t := menus[i][c]
		pt := inst.Payoffs[t]
		obj[t] += slope[t] * (pt.DefenderCovered - pt.DefenderUncovered)
	}
	if err := prob.SetObjective(obj); err != nil {
		return nil, false, err
	}

	// Best-response rows per active attacker, within his own menu.
	for i, c := range profile {
		if c < 0 {
			continue
		}
		t := menus[i][c]
		pt := inst.Payoffs[t]
		for _, j := range menus[i] {
			if j == t {
				continue
			}
			pj := inst.Payoffs[j]
			row := make([]float64, k)
			row[t] += slope[t] * (pt.AttackerCovered - pt.AttackerUncovered)
			row[j] -= slope[j] * (pj.AttackerCovered - pj.AttackerUncovered)
			if err := prob.AddConstraint(row, lp.GE, pj.AttackerUncovered-pt.AttackerUncovered); err != nil {
				return nil, false, err
			}
		}
	}

	sol, ok, err := solveAllocation(prob)
	if err != nil || !ok {
		return nil, ok, err
	}
	cov := make([]float64, k)
	for j := 0; j < k; j++ {
		cov[j] = min(max(slope[j]*sol[j], 0), 1)
	}
	res := &MultiResult{
		BestTypes:         make([]int, len(profile)),
		Coverage:          cov,
		Allocation:        sol,
		AttackerUtilities: make([]float64, len(profile)),
	}
	for i, c := range profile {
		if c < 0 {
			res.BestTypes[i] = -1
			continue
		}
		t := menus[i][c]
		res.BestTypes[i] = t
		res.DefenderUtility += inst.Payoffs[t].DefenderExpected(cov[t])
		res.AttackerUtilities[i] = inst.Payoffs[t].AttackerExpected(cov[t])
	}
	return res, true, nil
}
