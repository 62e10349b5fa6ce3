package game

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"github.com/auditgames/sag/internal/dist"
	"github.com/auditgames/sag/internal/payoff"
)

// sseCase is one input to solveSSE. degenerate marks a case drawn from a
// coarse grid, where kinks, caps and budgets coincide exactly: the optimum is
// still unique but the budget row's dual is not (any value between the value
// function's right and left derivative is a valid dual; the closed form
// reports the right one), so diffSSE leaves the shadow price out.
type sseCase struct {
	inst       *Instance
	budget     float64
	coeffs     []float64
	attackable []bool
	degenerate bool
}

func mustInstance(tb testing.TB, pays []payoff.Payoff, costs []float64) *Instance {
	tb.Helper()
	inst, err := NewInstance(pays, costs)
	if err != nil {
		tb.Fatalf("instance invalid: %v", err)
	}
	return inst
}

// randomInstance builds a valid random instance with k types.
func randomInstance(tb testing.TB, rng *rand.Rand, k int) *Instance {
	pays := make([]payoff.Payoff, k)
	costs := make([]float64, k)
	for i := range pays {
		pays[i] = payoff.Payoff{
			DefenderCovered:   rng.Float64() * 700,
			DefenderUncovered: -(10 + rng.Float64()*2000),
			AttackerCovered:   -(10 + rng.Float64()*6000),
			AttackerUncovered: 10 + rng.Float64()*800,
		}
		costs[i] = 0.5 + rng.Float64()*5
	}
	return mustInstance(tb, pays, costs)
}

// gridSSECase draws a degenerate instance: payoffs, costs, coefficients and
// the budget all come from a handful of round values, so types tie on U_au,
// candidates tie on defender utility, and the budget runs out exactly on
// kinks and caps.
func gridSSECase(tb testing.TB, rng *rand.Rand) sseCase {
	k := 1 + rng.Intn(6)
	pays := make([]payoff.Payoff, k)
	costs := make([]float64, k)
	c := sseCase{coeffs: make([]float64, k), attackable: make([]bool, k), degenerate: true}
	for i := range pays {
		pays[i] = payoff.Payoff{
			DefenderCovered:   float64(rng.Intn(3)) * 100,
			DefenderUncovered: -float64(1+rng.Intn(3)) * 400,
			AttackerCovered:   -float64(1+rng.Intn(3)) * 500,
			AttackerUncovered: float64(1+rng.Intn(4)) * 100,
		}
		costs[i] = float64(1 + rng.Intn(2))
		c.coeffs[i] = []float64{0, 0.25, 0.5, 1}[rng.Intn(4)]
		c.attackable[i] = rng.Intn(5) > 0
	}
	c.inst = mustInstance(tb, pays, costs)
	c.budget = float64(rng.Intn(12)) / 2
	return c
}

// randomSSECase draws an instance the way the two entry points would build
// it — Poisson futures (online) or fixed counts (offline), each with
// unattackable types — plus, one time in eight, a raw coefficient vector
// with an attackable zero coefficient, and one time in five a degenerate
// grid instance. Budgets include 0 and values far beyond what full coverage
// of every type costs.
func randomSSECase(tb testing.TB, rng *rand.Rand) sseCase {
	if rng.Intn(5) == 0 {
		return gridSSECase(tb, rng)
	}
	k := 1 + rng.Intn(9)
	c := sseCase{
		inst:       randomInstance(tb, rng, k),
		coeffs:     make([]float64, k),
		attackable: make([]bool, k),
	}
	switch rng.Intn(6) {
	case 0:
		c.budget = 0
	case 1:
		c.budget = 1e4 * (1 + rng.Float64())
	case 2:
		c.budget = rng.Float64()
	default:
		c.budget = rng.Float64() * 60
	}
	mode := rng.Intn(8)
	for t := 0; t < k; t++ {
		switch {
		case mode == 0: // raw coefficients, zero ones stay on the menu
			c.attackable[t] = rng.Intn(5) > 0
			if rng.Intn(4) > 0 {
				c.coeffs[t] = rng.Float64()
			}
		case mode < 5: // online
			if rng.Intn(4) > 0 {
				f := dist.Poisson{Lambda: rng.Float64() * 60}
				c.coeffs[t], c.attackable[t] = f.InverseMeanCoefficient(), f.Lambda > 0
			} else {
				c.coeffs[t] = dist.Poisson{}.InverseMeanCoefficient()
			}
		default: // offline
			c.coeffs[t] = 1
			if d := float64(rng.Intn(50)); d > 0 && rng.Intn(4) > 0 {
				c.coeffs[t], c.attackable[t] = 1/d, true
			}
		}
	}
	return c
}

func near(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

// diffSSE reports the first disagreement between the closed form and the
// simplex oracle on one case, or "" when they agree: same BestType, same
// CandidateFeasible, utilities and (off the grid) budget shadow price to
// 1e-9, every coverage to 1e-9 and every allocation to 1e-9 of the budget.
func diffSSE(c sseCase) string {
	got, err := solveSSE(context.Background(), c.inst, c.budget, c.coeffs, c.attackable)
	if err != nil {
		return "closed form: " + err.Error()
	}
	want, err := simplexSSE(c.inst, c.budget, c.coeffs, c.attackable)
	if err != nil {
		return "oracle: " + err.Error()
	}
	switch {
	case got.BestType != want.BestType:
		return fmt.Sprintf("BestType %d, oracle %d", got.BestType, want.BestType)
	case !reflect.DeepEqual(got.CandidateFeasible, want.CandidateFeasible):
		return fmt.Sprintf("CandidateFeasible %v, oracle %v", got.CandidateFeasible, want.CandidateFeasible)
	case got.Stats.LPSolves != want.Stats.LPSolves:
		return fmt.Sprintf("LPSolves %d, oracle %d", got.Stats.LPSolves, want.Stats.LPSolves)
	case !near(got.DefenderUtility, want.DefenderUtility, 1e-9):
		return fmt.Sprintf("DefenderUtility %v, oracle %v", got.DefenderUtility, want.DefenderUtility)
	case !near(got.AttackerUtility, want.AttackerUtility, 1e-9):
		return fmt.Sprintf("AttackerUtility %v, oracle %v", got.AttackerUtility, want.AttackerUtility)
	case !c.degenerate && !near(got.BudgetShadowPrice, want.BudgetShadowPrice, 1e-9):
		return fmt.Sprintf("BudgetShadowPrice %v, oracle %v", got.BudgetShadowPrice, want.BudgetShadowPrice)
	}
	for j := range got.Coverage {
		if math.Abs(got.Coverage[j]-want.Coverage[j]) > 1e-9 {
			return fmt.Sprintf("Coverage[%d] %v, oracle %v", j, got.Coverage[j], want.Coverage[j])
		}
		if math.Abs(got.Allocation[j]-want.Allocation[j]) > 1e-9*math.Max(1, c.budget) {
			return fmt.Sprintf("Allocation[%d] %v, oracle %v", j, got.Allocation[j], want.Allocation[j])
		}
	}
	return ""
}

// TestStructuredMatchesSimplex is the differential property the closed form
// stands on: on seeded random instances it returns what the multiple-LP
// simplex method returns. SAG_SSE_TRIALS overrides the instance count (the
// ROADMAP gate is one run at 1000000).
func TestStructuredMatchesSimplex(t *testing.T) {
	trials := 100_000
	if testing.Short() {
		trials = 10_000
	}
	if s := os.Getenv("SAG_SSE_TRIALS"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil {
			t.Fatalf("SAG_SSE_TRIALS: %v", err)
		}
		trials = n
	}
	rng := rand.New(rand.NewSource(20260927))
	for trial := 0; trial < trials; trial++ {
		c := randomSSECase(t, rng)
		if d := diffSSE(c); d != "" {
			t.Fatalf("trial %d: %s\ncase: budget=%v coeffs=%v attackable=%v\npayoffs=%+v costs=%v",
				trial, d, c.budget, c.coeffs, c.attackable, c.inst.Payoffs, c.inst.AuditCosts)
		}
	}
}

// TestEntryPointsUseStructuredSolver pins the two public entry points to
// solveSSE with the coefficient vectors the property test feeds it.
func TestEntryPointsUseStructuredSolver(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		k := 1 + rng.Intn(9)
		inst := randomInstance(t, rng, k)
		budget := rng.Float64() * 30
		futures := make([]dist.Poisson, k)
		counts := make([]float64, k)
		onCoeffs, offCoeffs := make([]float64, k), make([]float64, k)
		onAtt, offAtt := make([]bool, k), make([]bool, k)
		for i := range futures {
			if rng.Intn(4) > 0 {
				futures[i] = dist.Poisson{Lambda: rng.Float64() * 60}
				counts[i] = float64(rng.Intn(50))
			}
			onCoeffs[i], onAtt[i] = futures[i].InverseMeanCoefficient(), futures[i].Lambda > 0
			offCoeffs[i] = 1
			if counts[i] > 0 {
				offCoeffs[i], offAtt[i] = 1/counts[i], true
			}
		}
		for _, tc := range []struct {
			name  string
			solve func() (*Result, error)
			case_ sseCase
		}{
			{"online", func() (*Result, error) { return SolveOnlineSSE(inst, budget, futures) }, sseCase{inst: inst, budget: budget, coeffs: onCoeffs, attackable: onAtt}},
			{"offline", func() (*Result, error) { return SolveOfflineSSE(inst, budget, counts) }, sseCase{inst: inst, budget: budget, coeffs: offCoeffs, attackable: offAtt}},
		} {
			got, err := tc.solve()
			if err != nil {
				t.Fatal(err)
			}
			want, err := solveSSE(context.Background(), tc.case_.inst, tc.case_.budget, tc.case_.coeffs, tc.case_.attackable)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d %s: entry point diverges from solveSSE\ngot:  %+v\nwant: %+v", trial, tc.name, got, want)
			}
		}
	}
}

// TestStructuredEdgeCases walks the degenerate corners by hand. Every case
// is also checked against the oracle on every field but the budget row's
// dual, which a degenerate vertex leaves open (see sseCase).
func TestStructuredEdgeCases(t *testing.T) {
	// Round numbers so that kinks and budgets meet exactly in floating point.
	pf := func(udc, udu, uac, uau float64) payoff.Payoff {
		return payoff.Payoff{DefenderCovered: udc, DefenderUncovered: udu, AttackerCovered: uac, AttackerUncovered: uau}
	}
	all := func(k int) []bool {
		a := make([]bool, k)
		for i := range a {
			a[i] = true
		}
		return a
	}
	for _, tc := range []struct {
		name       string
		pays       []payoff.Payoff
		costs      []float64
		budget     float64
		coeffs     []float64
		attackable []bool
		best       int
		feasible   []bool
		coverage   []float64
		shadow     float64 // checked when ≥ 0
	}{
		{
			// Both types start level; one unit of budget buys 0.25 on each.
			name:   "equal U_au across types",
			pays:   []payoff.Payoff{pf(100, -400, -600, 400), pf(200, -400, -600, 400)},
			costs:  []float64{1, 1},
			budget: 1, coeffs: []float64{0.5, 0.5}, attackable: all(2),
			best: 1, feasible: []bool{true, true}, coverage: []float64{0.25, 0.25},
			shadow: 600 * 0.5 / 2,
		},
		{
			name:   "exact defender-utility tie, lowest index wins",
			pays:   []payoff.Payoff{pf(100, -400, -600, 400), pf(100, -400, -600, 400), pf(100, -400, -600, 400)},
			costs:  []float64{1, 1, 1},
			budget: 3, coeffs: []float64{0.5, 0.5, 0.5}, attackable: all(3),
			best: 0, feasible: []bool{true, true, true}, coverage: []float64{0.5, 0.5, 0.5},
			shadow: 500 * 0.5 / 3,
		},
		{
			name:   "tie among the attackable only",
			pays:   []payoff.Payoff{pf(100, -400, -600, 400), pf(100, -400, -600, 400), pf(100, -400, -600, 400)},
			costs:  []float64{1, 1, 1},
			budget: 2, coeffs: []float64{0.5, 0.5, 0.5}, attackable: []bool{false, true, true},
			best: 1, feasible: []bool{false, true, true}, coverage: []float64{0, 0.5, 0.5},
			shadow: 500 * 0.5 / 2,
		},
		{
			name:   "single attackable type, budget binds",
			pays:   []payoff.Payoff{pf(100, -400, -600, 400), pf(100, -400, -600, 900)},
			costs:  []float64{2, 1},
			budget: 1, coeffs: []float64{0.5, 0.5}, attackable: []bool{true, false},
			best: 0, feasible: []bool{true, false}, coverage: []float64{0.25, 0},
			shadow: 500 * 0.25,
		},
		{
			name:   "single attackable type, cap binds",
			pays:   []payoff.Payoff{pf(100, -400, -600, 400)},
			costs:  []float64{1},
			budget: 5, coeffs: []float64{0.5}, attackable: all(1),
			best: 0, feasible: []bool{true}, coverage: []float64{1},
			shadow: 0,
		},
		{
			// Lowering type 1 from 800 to type 0's 400 costs 400/(1000·0.5)
			// = 0.8 exactly: the budget runs out on the kink. Both candidates
			// are feasible there; type 0 at θ=0 earns −400, type 1 at θ=0.4
			// earns −1000+0.4·1100 = −560.
			name:   "budget binds exactly at a breakpoint",
			pays:   []payoff.Payoff{pf(100, -400, -600, 400), pf(100, -1000, -200, 800)},
			costs:  []float64{1, 1},
			budget: 0.8, coeffs: []float64{0.5, 0.5}, attackable: all(2),
			best: 0, feasible: []bool{true, true}, coverage: []float64{0, 0.4},
			shadow: -1,
		},
		{
			// Type 1 can never be covered, so the attacker's level cannot go
			// below its 300: type 0 is covered down to 300 and no further,
			// type 2 (U_au 200) drops off the menu.
			name:   "attackable type with a zero coefficient",
			pays:   []payoff.Payoff{pf(100, -400, -600, 400), pf(100, -500, -600, 300), pf(100, -100, -600, 200)},
			costs:  []float64{1, 1, 1},
			budget: 10, coeffs: []float64{0.5, 0, 0.5}, attackable: all(3),
			best: 0, feasible: []bool{true, true, false}, coverage: []float64{0.1, 0, 0},
			shadow: 0,
		},
		{
			name:   "zero budget",
			pays:   []payoff.Payoff{pf(100, -400, -600, 400), pf(100, -500, -600, 300)},
			costs:  []float64{1, 1},
			budget: 0, coeffs: []float64{0.5, 0.5}, attackable: all(2),
			best: 0, feasible: []bool{true, false}, coverage: []float64{0, 0},
			shadow: 500 * 0.5,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := sseCase{inst: mustInstance(t, tc.pays, tc.costs), budget: tc.budget, coeffs: tc.coeffs, attackable: tc.attackable}
			got, err := solveSSE(context.Background(), c.inst, c.budget, c.coeffs, c.attackable)
			if err != nil {
				t.Fatal(err)
			}
			if got.BestType != tc.best {
				t.Errorf("BestType = %d, want %d", got.BestType, tc.best)
			}
			if !reflect.DeepEqual(got.CandidateFeasible, tc.feasible) {
				t.Errorf("CandidateFeasible = %v, want %v", got.CandidateFeasible, tc.feasible)
			}
			spent := 0.0
			for j, want := range tc.coverage {
				if math.Abs(got.Coverage[j]-want) > 1e-12 {
					t.Errorf("Coverage[%d] = %v, want %v", j, got.Coverage[j], want)
				}
				if a := got.Allocation[j]; math.IsNaN(a) || math.IsInf(a, 0) || a < 0 {
					t.Errorf("Allocation[%d] = %v", j, a)
				}
				spent += got.Allocation[j]
			}
			if spent > tc.budget+1e-12 {
				t.Errorf("allocation %v spends %v of budget %v", got.Allocation, spent, tc.budget)
			}
			if tc.shadow >= 0 {
				if math.Abs(got.BudgetShadowPrice-tc.shadow) > 1e-12 {
					t.Errorf("BudgetShadowPrice = %v, want %v", got.BudgetShadowPrice, tc.shadow)
				}
			}

			c.degenerate = true // round numbers: the dual is the one field left out
			if d := diffSSE(c); d != "" {
				t.Errorf("oracle: %s", d)
			}
		})
	}
}

// TestZeroCoefficientBounds: a type with a zero (or negative-zero) expected
// future-alert coefficient that is still on the attacker's menu must come
// back with finite allocations and exactly zero coverage — no 1/0 from its
// slope.
func TestZeroCoefficientBounds(t *testing.T) {
	inst := randomInstance(t, rand.New(rand.NewSource(42)), 3)
	budget := 10.0

	for _, zero := range []float64{0, math.Copysign(0, -1)} {
		coeffs := []float64{0.8, zero, 0.5}
		attackable := []bool{true, true, true}
		res, err := solveSSE(context.Background(), inst, budget, coeffs, attackable)
		if err != nil {
			t.Fatalf("zero=%g: solveSSE failed: %v", zero, err)
		}
		for j, v := range res.Allocation {
			if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 || v > budget+1e-9 {
				t.Fatalf("zero=%g: allocation[%d] = %g outside [0, budget]", zero, j, v)
			}
		}
		for j, c := range res.Coverage {
			if math.IsNaN(c) || c < 0 || c > 1+1e-9 {
				t.Fatalf("zero=%g: coverage[%d] = %g outside [0, 1]", zero, j, c)
			}
		}
		// The zero-coefficient type yields zero marginal coverage however
		// much budget it gets, so its coverage must be exactly zero.
		if res.Coverage[1] != 0 {
			t.Fatalf("zero=%g: zero-coefficient type has coverage %g, want 0", zero, res.Coverage[1])
		}
		if d := diffSSE(sseCase{inst: inst, budget: budget, coeffs: coeffs, attackable: attackable}); d != "" {
			t.Fatalf("zero=%g: %s", zero, d)
		}
	}
}

// TestSolveCanceled: a done context is reported, not solved through.
func TestSolveCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	inst := randomInstance(t, rand.New(rand.NewSource(1)), 3)
	_, err := SolveOnlineSSECtx(ctx, inst, 5, []dist.Poisson{{Lambda: 3}, {Lambda: 4}, {Lambda: 5}})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// FuzzStructuredSSE feeds seeds to the property test's generator, so the
// fuzzer explores the same instance space with the same assertion.
func FuzzStructuredSSE(f *testing.F) {
	for _, seed := range []int64{0, 1, 42, 20260927} {
		f.Add(seed, []byte(nil))
	}
	f.Add(int64(3), binary.LittleEndian.AppendUint64(nil, math.Float64bits(0.8)))
	f.Fuzz(func(t *testing.T, seed int64, budgetBits []byte) {
		c := randomSSECase(t, rand.New(rand.NewSource(seed)))
		// Optionally override the budget with fuzzer-chosen bits — zero, or
		// large enough to clear the oracle's own 1e-9 feasibility tolerance
		// (below it the simplex sees no budget at all and the comparison
		// would be testing the oracle).
		if len(budgetBits) >= 8 {
			b := math.Float64frombits(binary.LittleEndian.Uint64(budgetBits))
			if b == 0 || (b >= 1e-6 && b <= 1e9) {
				c.budget = b
			}
		}
		if d := diffSSE(c); d != "" {
			t.Fatalf("%s\ncase: budget=%v coeffs=%v attackable=%v\npayoffs=%+v costs=%v",
				d, c.budget, c.coeffs, c.attackable, c.inst.Payoffs, c.inst.AuditCosts)
		}
	})
}

// FuzzOnlineSSEScales holds SolveOnlineSSE to its contract at the scales an
// estimator or a caller of the façade can hand it: rates from 0 and subnormals
// to 1e18 (the coefficient's two code paths and far past both), budgets from 0
// to 1e12, on the seven Table 2 payoffs and on random valid ones. It must not
// fail, hang or overflow; coverage stays in [0,1], the allocation inside the
// budget, and the reported best response is one. A NaN, infinite or negative
// rate or budget is refused at the door, never solved.
func FuzzOnlineSSEScales(f *testing.F) {
	f.Add(int64(0), 196.57, 50.0)
	f.Add(int64(1), 5e-324, 0.0)
	f.Add(int64(2), 700.0, 1e12)
	f.Add(int64(3), 1e18, 1e-300)
	f.Add(int64(4), 9.1e15, 30.0)
	f.Add(int64(5), math.NaN(), 30.0)
	f.Add(int64(6), 30.0, math.Inf(1))
	f.Fuzz(func(t *testing.T, seed int64, rate, budget float64) {
		rng := rand.New(rand.NewSource(seed))
		inst := table2Instance(t, 1)
		if seed%2 != 0 {
			inst = randomInstance(t, rng, 1+rng.Intn(9))
		}
		k := inst.NumTypes()
		futures := make([]dist.Poisson, k)
		for i := range futures {
			switch rng.Intn(5) {
			case 0: // no future arrivals: off the attacker's menu
			case 1:
				futures[i].Lambda = 5e-324
			case 2:
				futures[i].Lambda = math.Pow(10, -6+24*rng.Float64())
			default:
				futures[i].Lambda = 1 + 250*rng.Float64()
			}
		}
		futures[rng.Intn(k)].Lambda = rate

		badRate := math.IsNaN(rate) || math.IsInf(rate, 0) || rate < 0
		badBudget := math.IsNaN(budget) || math.IsInf(budget, 0) || budget < 0
		if badRate || badBudget {
			_, err := SolveOnlineSSE(inst, budget, futures)
			switch {
			case err == nil:
				t.Fatalf("rate %g, budget %g: solved", rate, budget)
			case badBudget && err.Error() != fmt.Sprintf("game: invalid budget %g", budget):
				t.Fatalf("budget %g refused with %q", budget, err)
			case !badBudget && !strings.Contains(err.Error(), fmt.Sprintf("dist: invalid Poisson rate %g", rate)):
				t.Fatalf("rate %g refused with %q", rate, err)
			}
			return
		}
		if rate > 1e18 || budget > 1e12 {
			t.Skip("beyond the scales an audit cycle has")
		}

		res, err := SolveOnlineSSE(inst, budget, futures)
		if err != nil {
			t.Fatalf("budget %g, futures %v: %v", budget, futures, err)
		}
		fail := func(format string, args ...any) {
			t.Helper()
			t.Fatalf("%s\nbudget=%v futures=%v\npayoffs=%+v costs=%v\nresult=%+v",
				fmt.Sprintf(format, args...), budget, futures, inst.Payoffs, inst.AuditCosts, res)
		}
		spent := 0.0
		for i := range res.Coverage {
			if c := res.Coverage[i]; !(c >= 0 && c <= 1) {
				fail("coverage[%d] = %v", i, c)
			}
			if a := res.Allocation[i]; !(a >= 0) || math.IsInf(a, 0) {
				fail("allocation[%d] = %v", i, a)
			}
			spent += res.Allocation[i]
		}
		if spent > budget*(1+1e-12) {
			fail("allocated %v of %v", spent, budget)
		}
		for _, v := range []float64{res.DefenderUtility, res.AttackerUtility, res.BudgetShadowPrice} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				fail("non-finite utility or shadow price")
			}
		}
		attackable := 0
		for i, p := range futures {
			if p.Lambda == 0 {
				continue
			}
			attackable++
			if res.BestType < 0 {
				fail("type %d is attackable but nobody attacks", i)
			}
			if u := inst.Payoffs[i].AttackerExpected(res.Coverage[i]); u > res.AttackerUtility+1e-9*(1+math.Abs(u)) {
				fail("type %d pays the attacker %v, his best response %d only %v", i, u, res.BestType, res.AttackerUtility)
			}
		}
		if attackable == 0 && res.BestType != -1 {
			fail("nothing is attackable, best response %d", res.BestType)
		}
	})
}
