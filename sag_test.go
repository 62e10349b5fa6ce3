package sag_test

import (
	"math"
	"math/rand"
	"testing"
	"time"

	sag "github.com/auditgames/sag"
)

func TestFacadeQuickstartFlow(t *testing.T) {
	pf := sag.Table2Payoffs()[1]
	scheme, err := sag.SolveOSSP(pf, 0.10)
	if err != nil {
		t.Fatal(err)
	}
	if err := scheme.Validate(0.10); err != nil {
		t.Fatal(err)
	}
	if scheme.WarnProbability() <= 0 {
		t.Fatal("type-1 OSSP at θ=0.1 should warn with positive probability")
	}
	// Cross-check against the LP path.
	lpScheme, err := sag.SolveOSSPLP(pf, 0.10)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(scheme.DefenderUtility-lpScheme.DefenderUtility) > 1e-6 {
		t.Fatalf("closed form %g vs LP %g", scheme.DefenderUtility, lpScheme.DefenderUtility)
	}
}

func TestFacadeEngineEndToEnd(t *testing.T) {
	pays := []sag.Payoff{sag.Table2Payoffs()[1], sag.Table2Payoffs()[3]}
	inst, err := sag.NewInstance(pays, sag.UniformCost(2, 1))
	if err != nil {
		t.Fatal(err)
	}
	// Historical records: 2 types, 5 days, simple morning/afternoon mix.
	var recs []sag.HistoryRecord
	for d := 0; d < 5; d++ {
		for i := 0; i < 30; i++ {
			recs = append(recs, sag.HistoryRecord{
				Day:  d,
				Type: i % 2,
				Time: time.Duration(8+i%9) * time.Hour,
			})
		}
	}
	curves, err := sag.NewCurves(recs, 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := sag.NewRollback(curves, sag.DefaultRollbackThreshold)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := sag.NewEngine(sag.EngineConfig{
		Instance:  inst,
		Budget:    10,
		Estimator: rb,
		Policy:    sag.PolicyOSSP,
		Rand:      rand.New(rand.NewSource(1)),
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		d, err := eng.Process(sag.Alert{Type: i % 2, Time: time.Duration(8+i%9) * time.Hour})
		if err != nil {
			t.Fatal(err)
		}
		if d.OSSPUtility < d.SSEUtility-1e-7 {
			t.Fatalf("alert %d: signaling hurt (%g < %g)", i, d.OSSPUtility, d.SSEUtility)
		}
	}
	sum := eng.Summary()
	if sum.Alerts != 20 || sum.BudgetSpent <= 0 {
		t.Fatalf("summary %+v", sum)
	}
}

func TestFacadeExtensions(t *testing.T) {
	// Bayesian wrapper.
	def := sag.DefenderSide{Covered: 100, Uncovered: -400}
	types := []sag.AttackerType{
		{Prior: 0.6, Covered: -2000, Uncovered: 400},
		{Prior: 0.4, Covered: -500, Uncovered: 800},
	}
	b, err := sag.SolveBayesianOSSP(def, types, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if len(b.QuitsAfterWarn) != 2 {
		t.Fatalf("Bayesian scheme %+v", b)
	}

	// Robust wrapper + premium.
	pf := sag.Table2Payoffs()[1]
	r, err := sag.SolveRobustOSSP(pf, 0.1, 50)
	if err != nil {
		t.Fatal(err)
	}
	exact, err := sag.SolveOSSP(pf, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if r.DefenderUtility > exact.DefenderUtility+1e-9 {
		t.Fatal("robust scheme cannot beat the exact OSSP")
	}
	prem, err := sag.RobustnessPremium(pf, 0.1, 50)
	if err != nil || prem < 0 {
		t.Fatalf("premium = %g, %v", prem, err)
	}

	// Rate rollback wrapper.
	var recs []sag.HistoryRecord
	for d := 0; d < 3; d++ {
		for i := 0; i < 20; i++ {
			recs = append(recs, sag.HistoryRecord{Day: d, Type: 0, Time: time.Duration(8+i%8) * time.Hour})
		}
	}
	curves, err := sag.NewCurves(recs, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	rr, err := sag.NewRateRollback(curves, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rates, err := rr.FutureRates(9 * time.Hour); err != nil || len(rates) != 1 {
		t.Fatalf("rate rollback rates %v, %v", rates, err)
	}
}

func TestFacadeResourceSSE(t *testing.T) {
	pays := sag.Table2Payoffs()
	inst, err := sag.NewInstance([]sag.Payoff{pays[1], pays[3]}, sag.UniformCost(2, 1))
	if err != nil {
		t.Fatal(err)
	}
	futures := []sag.Poisson{{Lambda: 200}, {Lambda: 140}}
	// One unmasked class is the base game.
	res, err := sag.SolveResourceSSE(inst, []sag.ResourceClass{
		{Name: "staff", Budget: 20, CostMultiplier: 1},
	}, futures)
	if err != nil {
		t.Fatal(err)
	}
	base, err := sag.SolveOnlineSSE(inst, 20, futures)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.DefenderUtility-base.DefenderUtility) > 1e-6 {
		t.Fatalf("resource %g vs base %g", res.DefenderUtility, base.DefenderUtility)
	}
	// Two classes: budgets and masks bind the allocation behind the coverage.
	classes := []sag.ResourceClass{
		{Name: "junior", Budget: 15, CanAudit: []bool{true, false}, CostMultiplier: 1},
		{Name: "senior", Budget: 5, CostMultiplier: 2},
	}
	res, err = sag.SolveResourceSSE(inst, classes, futures)
	if err != nil {
		t.Fatal(err)
	}
	if res.Allocation[0][1] != 0 {
		t.Fatalf("junior class pays %g for a type outside its mask", res.Allocation[0][1])
	}
	for r, c := range classes {
		if spent := res.Allocation[r][0] + res.Allocation[r][1]; spent > c.Budget+1e-9 {
			t.Fatalf("class %s spends %g of %g", c.Name, spent, c.Budget)
		}
	}
	if res.Coverage[0] <= 0 || res.Coverage[1] <= 0 {
		t.Fatalf("both types should be covered: %+v", res)
	}
}

func TestFacadeSSESolvers(t *testing.T) {
	inst, err := sag.NewInstance([]sag.Payoff{sag.Table2Payoffs()[1]}, []float64{1})
	if err != nil {
		t.Fatal(err)
	}
	online, err := sag.SolveOnlineSSE(inst, 20, []sag.Poisson{{Lambda: 200}})
	if err != nil {
		t.Fatal(err)
	}
	offline, err := sag.SolveOfflineSSE(inst, 20, []float64{200})
	if err != nil {
		t.Fatal(err)
	}
	// With λ = count = 200 the two coverage models nearly coincide.
	if math.Abs(online.Coverage[0]-offline.Coverage[0]) > 0.01 {
		t.Fatalf("online %g vs offline %g coverage", online.Coverage[0], offline.Coverage[0])
	}
}
