package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"github.com/auditgames/sag/internal/game"
	"github.com/auditgames/sag/internal/payoff"
)

// constEstimator returns fixed future rates regardless of time.
func constEstimator(rates ...float64) Estimator {
	return EstimatorFunc(func(time.Duration) ([]float64, error) {
		out := make([]float64, len(rates))
		copy(out, rates)
		return out, nil
	})
}

func singleInstance(t *testing.T) *game.Instance {
	t.Helper()
	inst, err := game.NewInstance([]payoff.Payoff{payoff.Table2()[1]}, []float64{1})
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

func multiInstance(t *testing.T) *game.Instance {
	t.Helper()
	table2 := payoff.Table2()
	inst, err := game.NewInstance(table2[1:], game.UniformCost(7, 1))
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

func newOSSPEngine(t *testing.T, inst *game.Instance, budget float64, est Estimator) *Engine {
	t.Helper()
	e, err := NewEngine(Config{
		Instance:  inst,
		Budget:    budget,
		Estimator: est,
		Policy:    PolicyOSSP,
		Rand:      rand.New(rand.NewSource(42)),
	})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestNewEngineValidation(t *testing.T) {
	inst := singleInstance(t)
	est := constEstimator(10)
	cases := []struct {
		name string
		cfg  Config
	}{
		{"nil instance", Config{Estimator: est, Budget: 1, Rand: rand.New(rand.NewSource(1))}},
		{"nil estimator", Config{Instance: inst, Budget: 1, Rand: rand.New(rand.NewSource(1))}},
		{"negative budget", Config{Instance: inst, Estimator: est, Budget: -1, Rand: rand.New(rand.NewSource(1))}},
		{"NaN budget", Config{Instance: inst, Estimator: est, Budget: math.NaN(), Rand: rand.New(rand.NewSource(1))}},
		{"bad policy", Config{Instance: inst, Estimator: est, Budget: 1, Policy: Policy(9), Rand: rand.New(rand.NewSource(1))}},
		{"OSSP without rand", Config{Instance: inst, Estimator: est, Budget: 1, Policy: PolicyOSSP}},
	}
	for _, c := range cases {
		if _, err := NewEngine(c.cfg); err == nil {
			t.Errorf("%s: want error", c.name)
		}
	}
	// SSE policy does not need a Rand.
	if _, err := NewEngine(Config{Instance: inst, Estimator: est, Budget: 1, Policy: PolicySSE}); err != nil {
		t.Errorf("SSE without rand should be fine: %v", err)
	}
}

func TestPolicyString(t *testing.T) {
	if PolicyOSSP.String() != "OSSP" || PolicySSE.String() != "online-SSE" {
		t.Fatal("policy names changed")
	}
	if Policy(7).String() == "" {
		t.Fatal("unknown policy should still stringify")
	}
}

func TestProcessSingleTypeBudgetPacing(t *testing.T) {
	inst := singleInstance(t)
	e := newOSSPEngine(t, inst, 20, constEstimator(196.57))
	var prevBudget = e.RemainingBudget()
	for i := 0; i < 50; i++ {
		d, err := e.Process(Alert{Type: 0, Time: time.Duration(i) * time.Minute})
		if err != nil {
			t.Fatal(err)
		}
		if d.BudgetAfter > prevBudget+1e-12 {
			t.Fatalf("alert %d: budget increased %g → %g", i, prevBudget, d.BudgetAfter)
		}
		if d.BudgetAfter < 0 {
			t.Fatalf("alert %d: negative budget %g", i, d.BudgetAfter)
		}
		if d.Theta < 0 || d.Theta > 1 {
			t.Fatalf("alert %d: theta %g out of range", i, d.Theta)
		}
		prevBudget = d.BudgetAfter
	}
	if len(e.Decisions()) != 50 {
		t.Fatalf("recorded %d decisions, want 50", len(e.Decisions()))
	}
	if e.InitialBudget() != 20 {
		t.Fatalf("initial budget %g, want 20", e.InitialBudget())
	}
}

func TestOSSPNeverWorseThanSSEPerAlert(t *testing.T) {
	inst := multiInstance(t)
	e := newOSSPEngine(t, inst, 50, constEstimator(196.57, 29.02, 140.46, 10.84, 25.43, 15.14, 43.27))
	for i := 0; i < 60; i++ {
		d, err := e.Process(Alert{Type: i % 7, Time: time.Duration(i) * time.Minute})
		if err != nil {
			t.Fatal(err)
		}
		if d.OSSPUtility < d.SSEUtility-1e-7 {
			t.Fatalf("alert %d (type %d): OSSP %g < SSE %g (Theorem 2 violated)",
				i, i%7, d.OSSPUtility, d.SSEUtility)
		}
	}
}

func TestSSEPolicyNeverWarns(t *testing.T) {
	inst := singleInstance(t)
	e, err := NewEngine(Config{Instance: inst, Budget: 20, Estimator: constEstimator(100), Policy: PolicySSE})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		d, err := e.Process(Alert{Type: 0})
		if err != nil {
			t.Fatal(err)
		}
		if d.Warned {
			t.Fatal("SSE policy must never warn")
		}
		if math.Abs(d.AuditCharge-d.Theta) > 1e-12 {
			t.Fatalf("SSE policy should charge θ (%g), charged %g", d.Theta, d.AuditCharge)
		}
		if d.OSSPUtility != d.SSEUtility {
			t.Fatal("SSE policy should report SSE utility in both fields")
		}
	}
}

func TestOSSPDeterministicWithSeed(t *testing.T) {
	run := func() []DecisionRecord {
		inst := multiInstance(t)
		e := newOSSPEngine(t, inst, 50, constEstimator(196.57, 29.02, 140.46, 10.84, 25.43, 15.14, 43.27))
		for i := 0; i < 40; i++ {
			if _, err := e.Process(Alert{Type: (i * 3) % 7}); err != nil {
				t.Fatal(err)
			}
		}
		return e.Decisions()
	}
	a, b := run(), run()
	for i := range a {
		if a[i].Warned != b[i].Warned || a[i].BudgetAfter != b[i].BudgetAfter ||
			a[i].OSSPUtility != b[i].OSSPUtility {
			t.Fatalf("decision %d differs across identical seeded runs", i)
		}
	}
}

func TestPreviewDoesNotMutate(t *testing.T) {
	inst := singleInstance(t)
	e := newOSSPEngine(t, inst, 20, constEstimator(100))
	before := e.RemainingBudget()
	d, err := e.Preview(Alert{Type: 0})
	if err != nil {
		t.Fatal(err)
	}
	if e.RemainingBudget() != before {
		t.Fatal("Preview mutated the budget")
	}
	if len(e.Decisions()) != 0 {
		t.Fatal("Preview recorded a decision")
	}
	if d.Theta <= 0 {
		t.Fatal("Preview should still solve the games")
	}
}

func TestVacuousGame(t *testing.T) {
	inst := singleInstance(t)
	e := newOSSPEngine(t, inst, 20, constEstimator(0))
	d, err := e.Process(Alert{Type: 0})
	if err != nil {
		t.Fatal(err)
	}
	if !d.Vacuous {
		t.Fatal("zero-rate estimate should yield a vacuous decision")
	}
	if d.BudgetAfter != 20 {
		t.Fatal("vacuous decision must not spend budget")
	}
	if d.OSSPUtility != 0 || d.SSEUtility != 0 {
		t.Fatal("vacuous decision should have zero utilities")
	}
}

func TestEstimatorErrorsPropagate(t *testing.T) {
	inst := singleInstance(t)
	boom := errors.New("boom")
	e, err := NewEngine(Config{
		Instance: inst, Budget: 20, Policy: PolicySSE,
		Estimator: EstimatorFunc(func(time.Duration) ([]float64, error) { return nil, boom }),
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Process(Alert{Type: 0}); !errors.Is(err, boom) {
		t.Fatalf("want wrapped estimator error, got %v", err)
	}
}

func TestEstimatorLengthMismatch(t *testing.T) {
	inst := multiInstance(t)
	e := newOSSPEngine(t, inst, 20, constEstimator(1, 2)) // 2 rates for 7 types
	if _, err := e.Process(Alert{Type: 0}); err == nil {
		t.Fatal("length mismatch should error")
	}
}

func TestEstimatorNegativeRate(t *testing.T) {
	inst := singleInstance(t)
	e := newOSSPEngine(t, inst, 20, constEstimator(-5))
	if _, err := e.Process(Alert{Type: 0}); err == nil {
		t.Fatal("negative rate should error")
	}
}

func TestAlertTypeOutOfRange(t *testing.T) {
	inst := singleInstance(t)
	e := newOSSPEngine(t, inst, 20, constEstimator(10))
	if _, err := e.Process(Alert{Type: 5}); err == nil {
		t.Fatal("out-of-range alert type should error")
	}
	if _, err := e.Process(Alert{Type: -1}); err == nil {
		t.Fatal("negative alert type should error")
	}
}

func TestBudgetExhaustionFloorsAtZero(t *testing.T) {
	inst := singleInstance(t)
	// Tiny budget, huge per-alert charge potential.
	e := newOSSPEngine(t, inst, 0.05, constEstimator(1))
	for i := 0; i < 10; i++ {
		d, err := e.Process(Alert{Type: 0})
		if err != nil {
			t.Fatal(err)
		}
		if d.BudgetAfter < 0 {
			t.Fatalf("budget went negative: %g", d.BudgetAfter)
		}
	}
}

func TestWarningsHappenWithPositiveTheta(t *testing.T) {
	inst := singleInstance(t)
	e := newOSSPEngine(t, inst, 20, constEstimator(100))
	warned := 0
	for i := 0; i < 200; i++ {
		d, err := e.Process(Alert{Type: 0})
		if err != nil {
			t.Fatal(err)
		}
		if d.Warned {
			warned++
		}
	}
	if warned == 0 {
		t.Fatal("with positive coverage the OSSP should warn sometimes")
	}
	sum := e.Summary()
	if sum.Warnings != warned {
		t.Fatalf("summary warnings %d, counted %d", sum.Warnings, warned)
	}
}

func TestNewCycleResetsState(t *testing.T) {
	inst := singleInstance(t)
	e := newOSSPEngine(t, inst, 20, constEstimator(100))
	for i := 0; i < 10; i++ {
		if _, err := e.Process(Alert{Type: 0}); err != nil {
			t.Fatal(err)
		}
	}
	if e.RemainingBudget() >= 20 {
		t.Fatal("budget should have been spent")
	}
	if err := e.NewCycle(35); err != nil {
		t.Fatal(err)
	}
	if e.RemainingBudget() != 35 || e.InitialBudget() != 35 {
		t.Fatalf("budget after NewCycle: %g/%g", e.RemainingBudget(), e.InitialBudget())
	}
	if len(e.Decisions()) != 0 {
		t.Fatal("decisions should be cleared")
	}
	if _, err := e.Process(Alert{Type: 0}); err != nil {
		t.Fatal(err)
	}
	if len(e.Decisions()) != 1 {
		t.Fatal("engine should keep working after NewCycle")
	}
	for _, b := range []float64{-1, math.NaN(), math.Inf(1), math.Inf(-1)} {
		want := fmt.Sprintf("core: invalid budget %g", b)
		if err := ValidateBudget(b); err == nil || err.Error() != want {
			t.Fatalf("ValidateBudget(%g) = %v, want %q", b, err, want)
		}
		if err := e.NewCycle(b); err == nil {
			t.Fatalf("NewCycle(%g) should be rejected", b)
		}
	}
}

func TestCloseCycleEmptyAndVacuous(t *testing.T) {
	inst := singleInstance(t)
	e := newOSSPEngine(t, inst, 20, constEstimator(0)) // vacuous estimates
	rng := rand.New(rand.NewSource(1))
	outcomes, cost := e.CloseCycle(rng)
	if len(outcomes) != 0 || cost != 0 {
		t.Fatal("empty cycle should close with no outcomes")
	}
	if _, err := e.Process(Alert{Type: 0}); err != nil {
		t.Fatal(err)
	}
	outcomes, cost = e.CloseCycle(rng)
	if len(outcomes) != 1 || outcomes[0].Audited || cost != 0 {
		t.Fatalf("vacuous decision should never be audited: %+v cost=%g", outcomes, cost)
	}
}

func TestSummaryAggregation(t *testing.T) {
	inst := singleInstance(t)
	e := newOSSPEngine(t, inst, 20, constEstimator(100))
	if s := e.Summary(); s.Alerts != 0 || s.BudgetSpent != 0 {
		t.Fatal("empty summary should be zero")
	}
	for i := 0; i < 25; i++ {
		if _, err := e.Process(Alert{Type: 0}); err != nil {
			t.Fatal(err)
		}
	}
	s := e.Summary()
	if s.Alerts != 25 {
		t.Fatalf("Alerts = %d, want 25", s.Alerts)
	}
	if s.BudgetSpent <= 0 || s.BudgetSpent > 20 {
		t.Fatalf("BudgetSpent = %g out of (0,20]", s.BudgetSpent)
	}
	if s.MeanOSSPUtility < s.MeanSSEUtility-1e-9 {
		t.Fatalf("mean OSSP %g < mean SSE %g", s.MeanOSSPUtility, s.MeanSSEUtility)
	}
	last := e.Decisions()[24]
	if s.FinalOSSP != last.OSSPUtility || s.FinalSSE != last.SSEUtility {
		t.Fatal("final utilities should come from the last decision")
	}
	if s.SAGEngaged != 25 {
		t.Fatalf("single-type cycle should engage the SAG on every alert, got %d", s.SAGEngaged)
	}
}
