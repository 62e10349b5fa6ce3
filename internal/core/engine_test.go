package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"
)

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
	e := testEngine(t, single(t), withRates(196.57))
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
	if e.Status().Budget != 20 {
		t.Fatalf("initial budget %g, want 20", e.Status().Budget)
	}
}

func TestOSSPNeverWorseThanSSEPerAlert(t *testing.T) {
	e := testEngine(t, withRates(196.57, 29.02, 140.46, 10.84, 25.43, 15.14, 43.27), withSeed(42))
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
	e := testEngine(t, single(t), withRates(100), sseBaseline)
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
		e := testEngine(t, withRates(196.57, 29.02, 140.46, 10.84, 25.43, 15.14, 43.27), withSeed(42))
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
	e := testEngine(t, single(t), withRates(100))
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
	e := testEngine(t, single(t), withRates(0))
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
	boom := errors.New("boom")
	e := testEngine(t, single(t), sseBaseline, func(c *Config) {
		c.Estimator = EstimatorFunc(func(time.Duration) ([]float64, error) { return nil, boom })
	})
	if _, err := e.Process(Alert{Type: 0}); !errors.Is(err, boom) {
		t.Fatalf("want wrapped estimator error, got %v", err)
	}
}

func TestEstimatorLengthMismatch(t *testing.T) {
	e := testEngine(t, withBudget(20), withRates(1, 2), withSeed(42)) // 2 rates for 7 types
	if _, err := e.Process(Alert{Type: 0}); err == nil {
		t.Fatal("length mismatch should error")
	}
}

func TestEstimatorNegativeRate(t *testing.T) {
	e := testEngine(t, single(t), withRates(-5))
	if _, err := e.Process(Alert{Type: 0}); err == nil {
		t.Fatal("negative rate should error")
	}
}

func TestAlertTypeOutOfRange(t *testing.T) {
	e := testEngine(t, single(t), withRates(10))
	if _, err := e.Process(Alert{Type: 5}); err == nil {
		t.Fatal("out-of-range alert type should error")
	}
	if _, err := e.Process(Alert{Type: -1}); err == nil {
		t.Fatal("negative alert type should error")
	}
}

func TestBudgetExhaustionFloorsAtZero(t *testing.T) {
	// Tiny budget, huge per-alert charge potential.
	e := testEngine(t, single(t), withBudget(0.05), withRates(1))
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
	e := testEngine(t, single(t), withRates(100))
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
	e := testEngine(t, single(t), withRates(100))
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
	if e.RemainingBudget() != 35 || e.Status().Budget != 35 {
		t.Fatalf("budget after NewCycle: %g/%g", e.RemainingBudget(), e.Status().Budget)
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
	e := testEngine(t, single(t), withRates(0)) // vacuous estimates
	outcomes, cost, err := e.CloseCycle(1, nil)
	if err != nil || len(outcomes) != 0 || cost != 0 {
		t.Fatalf("empty cycle should close with no outcomes: %+v cost=%g err=%v", outcomes, cost, err)
	}
	if err := e.NewCycle(20); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Process(Alert{Type: 0}); err != nil {
		t.Fatal(err)
	}
	outcomes, cost, err = e.CloseCycle(1, nil)
	if err != nil || len(outcomes) != 1 || outcomes[0].Audited || cost != 0 {
		t.Fatalf("vacuous decision should never be audited: %+v cost=%g err=%v", outcomes, cost, err)
	}
}

// TestClosedCycleRefusesAndDrawsNothing: once closed, the engine refuses a
// decision before it asks the estimator, an access and a second close, with
// ErrCycleClosed and nothing journaled; a quit and the next cycle's open
// still apply.
func TestClosedCycleRefusesAndDrawsNothing(t *testing.T) {
	asked := 0
	e := testEngine(t, single(t), func(c *Config) {
		c.Estimator = EstimatorFunc(func(time.Duration) ([]float64, error) {
			asked++
			return []float64{100}, nil
		})
	})
	var journal []Record
	enqueue := func(r Record) (func() error, error) {
		journal = append(journal, r)
		return nil, nil
	}
	if _, err := e.Process(Alert{Type: 0}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := e.CloseCycle(7, enqueue); err != nil {
		t.Fatal(err)
	}
	before, draws := e.Status(), e.ExportState().RNGDraws
	asked, journal = 0, nil
	if _, err := e.Process(Alert{Type: 0}); !errors.Is(err, ErrCycleClosed) || asked != 0 {
		t.Fatalf("decision on a closed cycle: err %v, estimator asked %d times", err, asked)
	}
	if err := e.Apply(Record{Kind: KindMeta}, enqueue); !errors.Is(err, ErrCycleClosed) {
		t.Fatalf("access on a closed cycle: err %v", err)
	}
	if _, _, err := e.CloseCycle(7, enqueue); !errors.Is(err, ErrCycleClosed) {
		t.Fatalf("second close: err %v", err)
	}
	if len(journal) != 0 || e.Status() != before || e.ExportState().RNGDraws != draws {
		t.Fatalf("refusals changed the cycle: journaled %v, status %+v (was %+v)", journal, e.Status(), before)
	}
	if err := e.Apply(Record{Kind: KindQuit, Employee: 4}, enqueue); err != nil {
		t.Fatal(err)
	}
	if err := e.Apply(Record{Kind: KindCycleOpen, Budget: 20}, enqueue); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Process(Alert{Type: 0}); err != nil {
		t.Fatalf("decision in the next cycle: %v", err)
	}
}

func TestSummaryAggregation(t *testing.T) {
	e := testEngine(t, single(t), withRates(100))
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
