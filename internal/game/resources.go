package game

import (
	"fmt"
	"math"
	"slices"

	"github.com/auditgames/sag/internal/dist"
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
// where A^{t,r} is the budget of class r allocated to type t.
//
// The slope factors as κ^t/V^t · 1/Mult_r, so in effective units — class r
// holds B_r/Mult_r, type t is covered at κ^t/V^t per unit whoever pays — the
// game is the base game plus a transport problem: holding the attacker to
// utility u costs type t the same max(0, U_au^t − u)/(g_t·slope_t) as in
// solveSSE, and the classes can ship those demands along the capability masks
// iff (Hall) every set R of classes holds at least what the types only R can
// audit demand. Each such condition is a single-budget cost curve, so the
// shared water level is the largest waterLevel over the sets R that are
// unions of types' auditor sets, the equilibrium is read off it exactly as in
// the base game, and an augmenting-path transport recovers who pays for what.

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
	if len(classes) == 0 || len(classes) > 64 {
		return nil, fmt.Errorf("game: need between 1 and 64 resource classes, got %d", len(classes))
	}
	k := inst.NumTypes()
	effective := make([]float64, len(classes)) // B_r / Mult_r
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
		effective[ci] = c.Budget / c.CostMultiplier
	}
	// auditors[t] is the set of classes that may audit type t, one bit per
	// class. A type nobody may audit accrues no coverage: zero coefficient.
	coeffs := make([]float64, k)
	attackable := make([]bool, k)
	auditors := make([]uint64, k)
	for t, f := range futures {
		attackable[t] = f.Lambda > 0
		for ci, c := range classes {
			if c.CanAudit == nil || c.CanAudit[t] {
				auditors[t] |= 1 << ci
			}
		}
		if auditors[t] != 0 {
			coeffs[t] = f.InverseMeanCoefficient()
		}
	}

	// Every union of attackable types' auditor sets is one Hall condition.
	var sets []uint64
	seen := map[uint64]bool{}
	add := func(r uint64) {
		if !seen[r] {
			seen[r] = true
			sets = append(sets, r)
		}
	}
	for t, a := range auditors {
		if !attackable[t] {
			continue
		}
		for _, r := range sets { // the sets so far; add only appends
			add(r | a)
		}
		add(a)
	}
	level := math.Inf(-1)
	members := make([]bool, k)
	for _, r := range sets {
		pooled := 0.0
		for ci, e := range effective {
			if r&(1<<ci) != 0 {
				pooled += e
			}
		}
		for t := range members {
			members[t] = attackable[t] && auditors[t]&^r == 0
		}
		kinks, floor := costCurve(inst, coeffs, members)
		l, _ := waterLevel(kinks, floor, pooled)
		level = max(level, l)
	}

	sse := equilibriumAt(inst, coeffs, attackable, level, 0)
	alloc := ship(sse.Allocation, effective, auditors)
	for r, c := range classes {
		for t := range alloc[r] {
			alloc[r][t] *= c.CostMultiplier // back to the class's own budget units
		}
	}
	return &ResourceResult{
		BestType:        sse.BestType,
		Coverage:        sse.Coverage,
		Allocation:      alloc,
		DefenderUtility: sse.DefenderUtility,
		AttackerUtility: sse.AttackerUtility,
	}, nil
}

// ship routes the per-type demands to the classes allowed to audit them
// (auditors[t], one bit per class) without overdrawing any class's effective
// budget, and returns flow[r][t], all in effective units. It is max-flow on
// the class→type graph by shortest augmenting paths: a type short of budget
// draws on a class with spare, or on one that frees some by handing another
// of its types to a third class, and so on. Hall's condition, which the
// water level was chosen to satisfy, says every demand is met; what round-off
// leaves unmet is dropped rather than overdrawn.
func ship(demand, effective []float64, auditors []uint64) [][]float64 {
	flow := make([][]float64, len(effective))
	spare := slices.Clone(effective)
	for r := range flow {
		flow[r] = make([]float64, len(demand))
	}
	may := func(r, t int) bool { return auditors[t]&(1<<r) != 0 }
	from := make([]int, len(effective))
	via := make([]int, len(effective))
	queue := make([]int, 0, len(effective))
	for t, want := range demand {
		for want > 0 {
			// Breadth-first from t's auditors: class r is reached through
			// via[r], the type an earlier class from[r] would hand over.
			queue = queue[:0]
			for r := range effective {
				from[r] = -2 // unreached
				if may(r, t) {
					from[r], via[r] = -1, t
					queue = append(queue, r)
				}
			}
			end := -1
			for head := 0; head < len(queue); head++ {
				r := queue[head]
				if spare[r] > 0 {
					end = r
					break
				}
				for t2, f := range flow[r] {
					for r2 := range effective {
						if f > 0 && from[r2] == -2 && may(r2, t2) {
							from[r2], via[r2] = r, t2
							queue = append(queue, r2)
						}
					}
				}
			}
			if end < 0 {
				break
			}
			push := min(want, spare[end])
			for r := end; from[r] >= 0; r = from[r] {
				push = min(push, flow[from[r]][via[r]])
			}
			spare[end] -= push
			for r := end; r >= 0; r = from[r] {
				flow[r][via[r]] += push
				if from[r] >= 0 {
					flow[from[r]][via[r]] -= push
				}
			}
			want -= push
		}
	}
	return flow
}
