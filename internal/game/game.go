// Package game implements the Stackelberg audit game underlying the SAG:
// the auditor (leader) commits to a randomized audit allocation over alert
// types; the attacker (follower) observes the commitment and picks the alert
// type that maximizes his expected utility.
//
// Two entry points share one exact closed-form solver for the paper's LP (2)
// (see solveSSE):
//
//   - SolveOnlineSSE — the online equilibrium used at each alert arrival,
//     where future alert volumes are Poisson random variables and coverage is
//     linearized through E[1/max(D,1)] (see dist.InverseMeanCoefficient).
//   - SolveOfflineSSE — the offline baseline, where the day's alert counts
//     are fixed and known, matching the "offline SSE" lines of Figures 2–3.
//
// The online SSE's marginal coverage probabilities are exactly the marginal
// audit probabilities of the optimal signaling scheme (paper Theorem 1), so
// this package is the first half of every SAG decision; package signaling is
// the second half.
//
// One extension game rides along, not served: SolveResourceSSE (several
// defender resource classes) reuses the closed form's cost curve and water
// level.
package game

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"slices"

	"github.com/auditgames/sag/internal/dist"
	"github.com/auditgames/sag/internal/payoff"
)

// Instance describes the static part of an audit game: the alert-type
// payoff structures and the per-type audit costs V^t (the budget consumed by
// auditing one alert of that type).
type Instance struct {
	Payoffs    []payoff.Payoff
	AuditCosts []float64
}

// SetWorkers is a no-op: solves run on the calling goroutine and have no
// fan-out to bound. It remains only because benchmark/ — which a solver
// change may not edit — calls SetWorkers(1) (benchmark/layers.go:179); remove
// it with the next change to benchmark/.
func (in *Instance) SetWorkers(int) {}

// maxCostScale bounds audit costs to [1/maxCostScale, maxCostScale]. Beside
// the ±1e100 payoff.Validate allows utilities, it keeps the budget's shadow
// price — up to a utility gap over an audit cost — finite: a cost of 1e-300
// next to Table 2's payoffs made it +Inf (FuzzInstanceScales).
const maxCostScale = 1e100

// NewInstance validates and builds an Instance. Payoffs and costs must have
// equal nonzero length, every payoff must pass payoff.Validate (the paper's
// sign conventions, magnitudes at most 1e100), and every audit cost must lie
// in [1e-100, 1e100].
func NewInstance(payoffs []payoff.Payoff, auditCosts []float64) (*Instance, error) {
	if len(payoffs) == 0 {
		return nil, fmt.Errorf("game: instance needs at least one alert type")
	}
	if len(payoffs) != len(auditCosts) {
		return nil, fmt.Errorf("game: %d payoffs but %d audit costs", len(payoffs), len(auditCosts))
	}
	for i, p := range payoffs {
		if err := p.Validate(); err != nil {
			return nil, fmt.Errorf("game: type %d: %w", i, err)
		}
	}
	for i, v := range auditCosts {
		if !(v >= 1/maxCostScale && v <= maxCostScale) {
			return nil, fmt.Errorf("game: type %d: audit cost must be in [%g, %g], got %g", i, 1/maxCostScale, maxCostScale, v)
		}
	}
	return &Instance{
		Payoffs:    append([]payoff.Payoff(nil), payoffs...),
		AuditCosts: append([]float64(nil), auditCosts...),
	}, nil
}

// NumTypes returns the number of alert types.
func (in *Instance) NumTypes() int { return len(in.Payoffs) }

// UniformCost builds the cost vector the paper's evaluation uses: V^t = c
// for every type.
func UniformCost(numTypes int, c float64) []float64 {
	costs := make([]float64, numTypes)
	for i := range costs {
		costs[i] = c
	}
	return costs
}

// Result is the Strong Stackelberg Equilibrium of one audit game.
type Result struct {
	// BestType is the attacker's best-response alert type (index into the
	// instance), or -1 when no type is attackable (all expected future
	// counts are zero), in which case the game is vacuous and utilities are
	// zero.
	BestType int
	// Coverage is the equilibrium marginal audit probability θ^{t'} per
	// type under the winning commitment.
	Coverage []float64
	// Allocation is the budget split B^{t'} per type behind Coverage: the
	// cheapest one that keeps BestType the attacker's best response.
	Allocation []float64
	// DefenderUtility is the auditor's expected utility against the
	// victim alert of the best-response type.
	DefenderUtility float64
	// AttackerUtility is the attacker's expected utility at his best
	// response.
	AttackerUtility float64
	// CandidateFeasible records, per type, whether the "force t to be the
	// best response" problem was feasible — useful for diagnostics and tests.
	CandidateFeasible []bool
	// BudgetShadowPrice is the dual value of the shared budget constraint
	// in the winning candidate problem: the marginal auditor utility of one
	// more unit of audit budget at this game state (0 when budget is not
	// binding).
	BudgetShadowPrice float64
	// Stats counts the candidate problems behind this solve — the
	// per-decision solver cost the engine exports as counters.
	Stats SolveStats
}

// finiteNonNegative reports whether v is usable as an audit budget or an
// alert count. NaN, ±Inf and negatives are refused here, at the API boundary
// — the same set core.ValidateBudget refuses — rather than deep in a solve.
func finiteNonNegative(v float64) bool { return v >= 0 && !math.IsInf(v, 1) }

// SolveOnlineSSE computes the online SSE given the remaining audit budget
// and the Poisson-distributed future alert counts per type (paper §3.1).
func SolveOnlineSSE(inst *Instance, budget float64, futures []dist.Poisson) (*Result, error) {
	return SolveOnlineSSECtx(context.Background(), inst, budget, futures)
}

// SolveOnlineSSECtx is SolveOnlineSSE behind a context check: a ctx that is
// already done returns its error instead of solving. The solve itself takes
// microseconds and is not interruptible.
func SolveOnlineSSECtx(ctx context.Context, inst *Instance, budget float64, futures []dist.Poisson) (*Result, error) {
	if len(futures) != inst.NumTypes() {
		return nil, fmt.Errorf("game: %d future distributions for %d types", len(futures), inst.NumTypes())
	}
	if !finiteNonNegative(budget) {
		return nil, fmt.Errorf("game: invalid budget %g", budget)
	}
	coeffs := make([]float64, inst.NumTypes())
	attackable := make([]bool, inst.NumTypes())
	for t, f := range futures {
		// A Poisson literal skips NewPoisson; hold it to the same rule here.
		if _, err := dist.NewPoisson(f.Lambda); err != nil {
			return nil, fmt.Errorf("game: type %d: %w", t, err)
		}
		coeffs[t] = f.InverseMeanCoefficient()
		// A type with zero expected future arrivals cannot host an attack;
		// the paper's estimate d^t_τ counts alerts strictly after τ, so a
		// zero-rate type is excluded from the attacker's menu.
		attackable[t] = f.Lambda > 0
	}
	return solveSSE(ctx, inst, budget, coeffs, attackable)
}

// SolveOfflineSSE computes the offline SSE baseline for a full audit cycle
// whose per-type alert counts are fixed and known. Coverage of type t with
// allocation B is B/(V^t·d^t); types with zero count are not attackable.
func SolveOfflineSSE(inst *Instance, budget float64, counts []float64) (*Result, error) {
	if len(counts) != inst.NumTypes() {
		return nil, fmt.Errorf("game: %d counts for %d types", len(counts), inst.NumTypes())
	}
	if !finiteNonNegative(budget) {
		return nil, fmt.Errorf("game: invalid budget %g", budget)
	}
	coeffs := make([]float64, inst.NumTypes())
	attackable := make([]bool, inst.NumTypes())
	for t, d := range counts {
		if !finiteNonNegative(d) {
			return nil, fmt.Errorf("game: invalid count %g for type %d", d, t)
		}
		if d > 0 {
			coeffs[t] = 1 / d
			attackable[t] = true
		} else {
			coeffs[t] = 1
		}
	}
	return solveSSE(context.Background(), inst, budget, coeffs, attackable)
}

// solveSSE solves LP (2) exactly, without an LP solver. coeffs[t] is the
// linear coverage coefficient: θ^t = slope_t·B^t with slope_t = coeffs[t]/V^t.
// attackable[t] gates both the candidate set and the best-response rows.
//
// LP (2) is the multiple-LP method: for each candidate best response t,
// maximize θ^t subject to "the attacker prefers t", θ ≤ 1 and Σ B ≤ budget.
// With g_j = U_au^j − U_ac^j > 0, the attacker attacking t earns
// u = U_au^t − g_t·θ^t, and preferring t means every other attackable type j
// is covered down to that level: θ^j ≥ (U_au^j − u)/g_j. The cheapest such
// commitment costs
//
//	C(u) = Σ_j max(0, U_au^j − u) / (g_j·slope_j),
//
// a convex, piecewise-linear, decreasing curve with a kink at each U_au^j —
// and the same curve for every candidate, because t's own term has the same
// form. Coverage ≤ 1 puts a floor under u: U_ac^j for a type that can be
// covered, U_au^j for one whose slope is zero. So all candidates share one
// water level u*: the lowest u at or above the floor with C(u) ≤ budget,
// found by sorting the kinks and walking down segment by segment. Candidate
// t is feasible iff U_au^t ≥ u*, its optimum is θ^t = (U_au^t − u*)/g_t, and
// the other types sit at exactly (U_au^j − u*)/g_j — the minimal allocation,
// which is also the vertex the simplex returns. When the budget stops the
// walk, one more unit of it lowers u* by 1/|C'(u*)|, which is the budget
// row's dual up to the winner's (U_dc − U_du)/g_t.
//
// Candidates are compared in ascending type order, a later one replacing the
// incumbent only if it beats it by more than 1e-12, so exact defender-utility
// ties go to the lowest type index.
func solveSSE(ctx context.Context, inst *Instance, budget float64, coeffs []float64, attackable []bool) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("game: SSE solve canceled: %w", err)
	}
	kinks, floor := costCurve(inst, coeffs, attackable)
	if len(kinks) == 0 {
		return equilibriumAt(inst, coeffs, attackable, 0, 0), nil // vacuous: nothing is attackable
	}
	level, marginal := waterLevel(kinks, floor, budget)
	res := equilibriumAt(inst, coeffs, attackable, level, marginal)
	res.Stats.LPSolves = len(kinks)
	return res, nil
}

// costCurve returns C(u) over the types in members as its kinks, sorted by
// descending level, and the floor coverage ≤ 1 puts under u. C's slope grows
// by a kink's weight as u drops below its level; a zero-slope type can never
// be covered, so it costs nothing and instead holds the floor at its U_au.
func costCurve(inst *Instance, coeffs []float64, members []bool) (kinks []kink, floor float64) {
	kinks = make([]kink, 0, inst.NumTypes())
	floor = math.Inf(-1)
	for t, p := range inst.Payoffs {
		if !members[t] {
			continue
		}
		kn := kink{level: p.AttackerUncovered}
		if slope := coeffs[t] / inst.AuditCosts[t]; slope > 0 {
			kn.weight = 1 / ((p.AttackerUncovered - p.AttackerCovered) * slope)
			floor = max(floor, p.AttackerCovered)
		} else {
			floor = max(floor, p.AttackerUncovered)
		}
		kinks = append(kinks, kn)
	}
	slices.SortFunc(kinks, func(a, b kink) int { return cmp.Compare(b.level, a.level) })
	return kinks, floor
}

// equilibriumAt reads the SSE off the water level: every attackable type at
// or above it is a feasible candidate covered down to it, and the winner is
// picked in ascending type order. marginal is waterLevel's −du/dbudget.
func equilibriumAt(inst *Instance, coeffs []float64, attackable []bool, level, marginal float64) *Result {
	k := inst.NumTypes()
	res := &Result{
		BestType:          -1,
		Coverage:          make([]float64, k),
		Allocation:        make([]float64, k),
		CandidateFeasible: make([]bool, k),
	}
	for t, p := range inst.Payoffs {
		if !attackable[t] || p.AttackerUncovered < level {
			continue
		}
		res.CandidateFeasible[t] = true
		gap := p.AttackerUncovered - p.AttackerCovered
		theta := (p.AttackerUncovered - level) / gap
		res.Coverage[t] = theta
		if theta > 0 {
			res.Allocation[t] = theta * inst.AuditCosts[t] / coeffs[t]
		}
		if u := p.DefenderExpected(theta); res.BestType < 0 || u > res.DefenderUtility+1e-12 {
			res.BestType = t
			res.DefenderUtility = u
			res.AttackerUtility = p.AttackerExpected(theta)
			res.BudgetShadowPrice = marginal * (p.DefenderCovered - p.DefenderUncovered) / gap
		}
	}
	return res
}

// kink is one breakpoint of the cost curve C(u): below level, C's slope
// steepens by weight.
type kink struct {
	level, weight float64
}

// waterLevel walks C(u) down from its highest kink and returns the lowest
// attacker utility level the budget can enforce, no lower than floor, and
// the rate −du/dbudget at which more budget would lower it (0 when the
// floor, not the budget, stopped the walk). kinks are sorted by descending
// level; floor is at most the first level.
//
// A budget that falls short of the next kink by rounding alone (1e-12 of
// itself) reaches it: whether a type sitting exactly on the water level is a
// feasible candidate must not hang on the last bit of a sum.
func waterLevel(kinks []kink, floor, budget float64) (level, marginal float64) {
	level = kinks[0].level
	spent, rate := 0.0, 0.0
	for i, kn := range kinks {
		rate += kn.weight
		next := floor
		if i+1 < len(kinks) {
			next = max(next, kinks[i+1].level)
		}
		step := rate * (level - next)
		if spent+step > budget*(1+1e-12) {
			stop := max(next, level-(budget-spent)/rate)
			// Rounding stop to a float64 is worth ulp(stop)·rate of budget:
			// nothing at the rates a day has, more than the walk's own 1e-12
			// once rates reach ~1e10. Step back up until the spend fits.
			for spent+rate*(level-stop) > budget*(1+1e-12) {
				stop = math.Nextafter(stop, level)
			}
			return stop, 1 / rate
		}
		spent = min(spent+step, budget)
		level = next
	}
	return level, 0
}
