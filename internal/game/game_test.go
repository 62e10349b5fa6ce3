package game

import (
	"math"
	"testing"
	"testing/quick"

	"github.com/auditgames/sag/internal/dist"
	"github.com/auditgames/sag/internal/payoff"
)

func table2Instance(t *testing.T, cost float64) *Instance {
	t.Helper()
	table2 := payoff.Table2()
	inst, err := NewInstance(table2[1:], UniformCost(7, cost))
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

func singleTypeInstance(t *testing.T) *Instance {
	t.Helper()
	inst, err := NewInstance([]payoff.Payoff{payoff.Table2()[1]}, []float64{1})
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

func TestNewInstanceValidation(t *testing.T) {
	if _, err := NewInstance(nil, nil); err == nil {
		t.Error("empty instance should be rejected")
	}
	table2 := payoff.Table2()
	if _, err := NewInstance(table2[1:], []float64{1}); err == nil {
		t.Error("length mismatch should be rejected")
	}
	if _, err := NewInstance([]payoff.Payoff{{}}, []float64{1}); err == nil {
		t.Error("invalid payoff should be rejected")
	}
	if _, err := NewInstance([]payoff.Payoff{payoff.Table2()[1]}, []float64{0}); err == nil {
		t.Error("zero audit cost should be rejected")
	}
	if _, err := NewInstance([]payoff.Payoff{payoff.Table2()[1]}, []float64{math.Inf(1)}); err == nil {
		t.Error("infinite audit cost should be rejected")
	}
}

func TestInstanceCopiesInputs(t *testing.T) {
	pays := []payoff.Payoff{payoff.Table2()[1]}
	costs := []float64{1}
	inst, err := NewInstance(pays, costs)
	if err != nil {
		t.Fatal(err)
	}
	costs[0] = 99
	if inst.AuditCosts[0] != 1 {
		t.Error("NewInstance must copy the cost slice")
	}
}

func TestUniformCost(t *testing.T) {
	c := UniformCost(3, 2.5)
	if len(c) != 3 || c[0] != 2.5 || c[2] != 2.5 {
		t.Fatalf("UniformCost = %v", c)
	}
}

// Single type closed form: θ* = min(1, κ·B/V) where κ = E[1/max(D,1)].
func TestOnlineSSESingleTypeClosedForm(t *testing.T) {
	inst := singleTypeInstance(t)
	for _, tc := range []struct {
		budget float64
		lambda float64
	}{
		{20, 196.57}, {5, 196.57}, {200, 196.57}, {1, 3}, {50, 3},
	} {
		fut := []dist.Poisson{{Lambda: tc.lambda}}
		res, err := SolveOnlineSSE(inst, tc.budget, fut)
		if err != nil {
			t.Fatal(err)
		}
		kappa := fut[0].InverseMeanCoefficient()
		want := math.Min(1, kappa*tc.budget)
		if res.BestType != 0 {
			t.Fatalf("BestType = %d, want 0", res.BestType)
		}
		if math.Abs(res.Coverage[0]-want) > 1e-6 {
			t.Fatalf("B=%g λ=%g: coverage %g, want %g", tc.budget, tc.lambda, res.Coverage[0], want)
		}
		wantU := inst.Payoffs[0].DefenderExpected(want)
		if math.Abs(res.DefenderUtility-wantU) > 1e-6 {
			t.Fatalf("defender utility %g, want %g", res.DefenderUtility, wantU)
		}
	}
}

func TestOfflineSSESingleTypeClosedForm(t *testing.T) {
	inst := singleTypeInstance(t)
	res, err := SolveOfflineSSE(inst, 20, []float64{200})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Coverage[0]-0.1) > 1e-9 {
		t.Fatalf("coverage = %g, want 0.1", res.Coverage[0])
	}
	// Budget exceeding the day's alert volume caps coverage at 1.
	res, err = SolveOfflineSSE(inst, 500, []float64{200})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Coverage[0]-1) > 1e-9 {
		t.Fatalf("coverage = %g, want 1", res.Coverage[0])
	}
}

func TestSSEZeroBudget(t *testing.T) {
	inst := table2Instance(t, 1)
	futures := make([]dist.Poisson, 7)
	for i := range futures {
		futures[i] = dist.Poisson{Lambda: 10}
	}
	res, err := SolveOnlineSSE(inst, 0, futures)
	if err != nil {
		t.Fatal(err)
	}
	// With no budget, the attacker picks the type with the highest U_au
	// (type 7, index 6, U_au = 800) and the auditor eats U_du of that type.
	if res.BestType != 6 {
		t.Fatalf("BestType = %d, want 6", res.BestType)
	}
	if math.Abs(res.AttackerUtility-800) > 1e-9 {
		t.Fatalf("attacker utility = %g, want 800", res.AttackerUtility)
	}
	if math.Abs(res.DefenderUtility-(-2000)) > 1e-9 {
		t.Fatalf("defender utility = %g, want -2000", res.DefenderUtility)
	}
}

func TestSSENoAttackableTypes(t *testing.T) {
	inst := table2Instance(t, 1)
	res, err := SolveOnlineSSE(inst, 50, make([]dist.Poisson, 7))
	if err != nil {
		t.Fatal(err)
	}
	if res.BestType != -1 {
		t.Fatalf("BestType = %d, want -1 (vacuous game)", res.BestType)
	}
	if res.DefenderUtility != 0 || res.AttackerUtility != 0 {
		t.Fatal("vacuous game should have zero utilities")
	}
}

func TestSSEBestResponseConstraintHolds(t *testing.T) {
	inst := table2Instance(t, 1)
	futures := []dist.Poisson{
		{Lambda: 196.57}, {Lambda: 29.02}, {Lambda: 140.46}, {Lambda: 10.84},
		{Lambda: 25.43}, {Lambda: 15.14}, {Lambda: 43.27},
	}
	res, err := SolveOnlineSSE(inst, 50, futures)
	if err != nil {
		t.Fatal(err)
	}
	best := res.BestType
	bestU := inst.Payoffs[best].AttackerExpected(res.Coverage[best])
	for j := 0; j < inst.NumTypes(); j++ {
		if futures[j].Lambda == 0 {
			continue
		}
		u := inst.Payoffs[j].AttackerExpected(res.Coverage[j])
		if u > bestU+1e-6 {
			t.Fatalf("type %d gives attacker %g > best type %d's %g", j, u, best, bestU)
		}
	}
	// Budget is respected.
	total := 0.0
	for _, b := range res.Allocation {
		total += b
	}
	if total > 50+1e-6 {
		t.Fatalf("allocation %g exceeds budget 50", total)
	}
	for j, c := range res.Coverage {
		if c < -1e-9 || c > 1+1e-9 {
			t.Fatalf("coverage[%d] = %g out of [0,1]", j, c)
		}
	}
}

func TestSSELargeBudgetDetersEverything(t *testing.T) {
	inst := table2Instance(t, 1)
	counts := []float64{10, 10, 10, 10, 10, 10, 10}
	res, err := SolveOfflineSSE(inst, 70, counts) // enough to audit every alert
	if err != nil {
		t.Fatal(err)
	}
	// Full coverage of the best type is achievable; the attacker's utility
	// must be at most that of attacking a fully covered alert.
	if res.AttackerUtility > 1e-9 {
		// All types have enough budget to be covered beyond their
		// deterrence threshold.
		t.Fatalf("attacker utility = %g, want ≤ 0 with saturating budget", res.AttackerUtility)
	}
}

func TestSSEBudgetMonotonicity(t *testing.T) {
	inst := table2Instance(t, 1)
	futures := []dist.Poisson{
		{Lambda: 196.57}, {Lambda: 29.02}, {Lambda: 140.46}, {Lambda: 10.84},
		{Lambda: 25.43}, {Lambda: 15.14}, {Lambda: 43.27},
	}
	prev := math.Inf(-1)
	for _, b := range []float64{0, 5, 10, 20, 35, 50, 80, 120, 200, 400} {
		res, err := SolveOnlineSSE(inst, b, futures)
		if err != nil {
			t.Fatal(err)
		}
		if res.DefenderUtility < prev-1e-7 {
			t.Fatalf("budget %g: defender utility %g decreased from %g", b, res.DefenderUtility, prev)
		}
		prev = res.DefenderUtility
	}
}

func TestSSEAttackerUtilityMonotoneInBudget(t *testing.T) {
	inst := table2Instance(t, 1)
	futures := []dist.Poisson{
		{Lambda: 196.57}, {Lambda: 29.02}, {Lambda: 140.46}, {Lambda: 10.84},
		{Lambda: 25.43}, {Lambda: 15.14}, {Lambda: 43.27},
	}
	prev := math.Inf(1)
	for _, b := range []float64{0, 10, 25, 50, 100, 250} {
		res, err := SolveOnlineSSE(inst, b, futures)
		if err != nil {
			t.Fatal(err)
		}
		if res.AttackerUtility > prev+1e-7 {
			t.Fatalf("budget %g: attacker utility %g increased from %g", b, res.AttackerUtility, prev)
		}
		prev = res.AttackerUtility
	}
}

func TestSSEInputValidation(t *testing.T) {
	inst := singleTypeInstance(t)
	fut := []dist.Poisson{{Lambda: 1}}
	for _, tc := range []struct {
		name    string
		budget  float64
		futures []dist.Poisson // online solve when counts is nil
		counts  []float64
	}{
		{name: "online negative budget", budget: -1, futures: fut},
		{name: "online NaN budget", budget: math.NaN(), futures: fut},
		{name: "online +Inf budget", budget: math.Inf(1), futures: fut},
		{name: "online -Inf budget", budget: math.Inf(-1), futures: fut},
		{name: "online future-count length mismatch", budget: 1},
		{name: "offline negative count", budget: 1, counts: []float64{-3}},
		{name: "offline NaN count", budget: 1, counts: []float64{math.NaN()}},
		{name: "offline +Inf count", budget: 1, counts: []float64{math.Inf(1)}},
		{name: "offline count length mismatch", budget: 1, counts: []float64{1, 2}},
		{name: "offline NaN budget", budget: math.NaN(), counts: []float64{1}},
		{name: "offline +Inf budget", budget: math.Inf(1), counts: []float64{1}},
	} {
		var err error
		if tc.counts != nil {
			_, err = SolveOfflineSSE(inst, tc.budget, tc.counts)
		} else {
			_, err = SolveOnlineSSE(inst, tc.budget, tc.futures)
		}
		if err == nil {
			t.Errorf("%s should be rejected", tc.name)
		}
	}
	// The largest finite budget is a budget: it saturates coverage.
	if res, err := SolveOnlineSSE(inst, math.MaxFloat64, fut); err != nil || res.Coverage[0] != 1 {
		t.Errorf("MaxFloat64 budget: coverage %v, err %v; want full coverage", res, err)
	}
}

func TestOfflineSSETwoTypesHandVerified(t *testing.T) {
	// Two identical types with 10 alerts each and budget 10: symmetry and
	// the best-response constraint force equal coverage 0.5 on both.
	pf := payoff.Payoff{DefenderCovered: 100, DefenderUncovered: -400, AttackerCovered: -2000, AttackerUncovered: 400}
	inst, err := NewInstance([]payoff.Payoff{pf, pf}, UniformCost(2, 1))
	if err != nil {
		t.Fatal(err)
	}
	res, err := SolveOfflineSSE(inst, 10, []float64{10, 10})
	if err != nil {
		t.Fatal(err)
	}
	// θ = 0.5 on each type is enough to deter (threshold = 400/2400 = 1/6),
	// but the SSE still reports the LP coverage; both coverages must be
	// equal by symmetry and sum to the normalized budget.
	if math.Abs(res.Coverage[0]-res.Coverage[1]) > 1e-6 {
		t.Fatalf("asymmetric coverage %v for symmetric game", res.Coverage)
	}
	if res.Coverage[res.BestType] < pf.DeterrenceThreshold()-1e-9 {
		t.Fatalf("coverage %g below deterrence threshold with ample budget", res.Coverage[res.BestType])
	}
}

func TestBudgetShadowPrice(t *testing.T) {
	inst := singleTypeInstance(t)
	fut := []dist.Poisson{{Lambda: 196.57}}
	// Scarce budget: the budget row binds and the shadow price equals the
	// objective slope dU/dB = κ·(U_dc − U_du).
	res, err := SolveOnlineSSE(inst, 20, fut)
	if err != nil {
		t.Fatal(err)
	}
	kappa := fut[0].InverseMeanCoefficient()
	want := kappa * (inst.Payoffs[0].DefenderCovered - inst.Payoffs[0].DefenderUncovered)
	if math.Abs(res.BudgetShadowPrice-want) > 1e-9 {
		t.Fatalf("shadow price %g, want %g", res.BudgetShadowPrice, want)
	}
	// Saturating budget: coverage capped at 1, the budget row is loose.
	res, err = SolveOnlineSSE(inst, 1e6, fut)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.BudgetShadowPrice) > 1e-9 {
		t.Fatalf("loose budget should have zero shadow price, got %g", res.BudgetShadowPrice)
	}
}

func TestQuickSSEFeasibilityInvariants(t *testing.T) {
	inst := table2Instance(t, 1)
	prop := func(rawBudget float64, seeds [7]uint8) bool {
		budget := math.Mod(math.Abs(rawBudget), 120)
		if math.IsNaN(budget) {
			budget = 10
		}
		futures := make([]dist.Poisson, 7)
		for i, s := range seeds {
			futures[i] = dist.Poisson{Lambda: float64(s % 50)}
		}
		res, err := SolveOnlineSSE(inst, budget, futures)
		if err != nil {
			return false
		}
		if res.BestType == -1 {
			for _, f := range futures {
				if f.Lambda > 0 {
					return false
				}
			}
			return true
		}
		total := 0.0
		for j, b := range res.Allocation {
			if b < -1e-9 {
				return false
			}
			total += b
			if res.Coverage[j] < -1e-9 || res.Coverage[j] > 1+1e-9 {
				return false
			}
		}
		if total > budget+1e-6 {
			return false
		}
		// Best-response dominance.
		bestU := inst.Payoffs[res.BestType].AttackerExpected(res.Coverage[res.BestType])
		for j := range futures {
			if futures[j].Lambda == 0 {
				continue
			}
			if inst.Payoffs[j].AttackerExpected(res.Coverage[j]) > bestU+1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
