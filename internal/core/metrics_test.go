package core

import (
	"math/rand"
	"testing"
	"time"

	"github.com/auditgames/sag/internal/game"
	"github.com/auditgames/sag/internal/obs"
	"github.com/auditgames/sag/internal/payoff"
)

func metricsFixture(t *testing.T, reg *obs.Registry, pays []payoff.Payoff, rates []float64, budget float64) *Engine {
	t.Helper()
	inst, err := game.NewInstance(pays, game.UniformCost(len(pays), 1))
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(Config{
		Instance:  inst,
		Budget:    budget,
		Estimator: EstimatorFunc(func(time.Duration) ([]float64, error) { return rates, nil }),
		Policy:    PolicyOSSP,
		Rand:      rand.New(rand.NewSource(7)),
		Metrics:   reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

func TestEngineMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	table2 := payoff.Table2()
	pays := table2[1:4]
	eng := metricsFixture(t, reg, pays, []float64{40, 25, 10}, 20)

	const n = 8
	for i := 0; i < n; i++ {
		if _, err := eng.Process(Alert{Type: i % 3, Time: time.Duration(i) * time.Minute}); err != nil {
			t.Fatal(err)
		}
	}

	snap := reg.Snapshot()
	if got := snap.Counters[MetricDecisionsTotal+`{policy="OSSP"}`]; got != n {
		t.Fatalf("decisions counter = %d, want %d", got, n)
	}
	for _, stage := range []string{"estimate", "sse", "signal"} {
		hd, ok := snap.Histograms[MetricStageSeconds+`{stage="`+stage+`"}`]
		if !ok || hd.Count != n {
			t.Fatalf("stage %q histogram count = %d, want %d", stage, hd.Count, n)
		}
	}
	if hd := snap.Histograms[MetricDecisionSeconds]; hd.Count != n {
		t.Fatalf("decision histogram count = %d, want %d", hd.Count, n)
	}
	if got := snap.Gauges[MetricBudgetRemaining]; got != eng.RemainingBudget() {
		t.Fatalf("budget gauge %g, engine budget %g", got, eng.RemainingBudget())
	}
	// Each decision solves one candidate problem per attackable type (3
	// here).
	if got := snap.Counters[MetricLPSolvesTotal]; got != n*3 {
		t.Fatalf("lp solves = %d, want %d", got, n*3)
	}

	// NewCycle resets the gauge to the fresh budget.
	if err := eng.NewCycle(33); err != nil {
		t.Fatal(err)
	}
	if got := reg.Snapshot().Gauges[MetricBudgetRemaining]; got != 33 {
		t.Fatalf("budget gauge after NewCycle = %g, want 33", got)
	}
}

func TestEngineMetricsVacuous(t *testing.T) {
	reg := obs.NewRegistry()

	// All-zero future rates: every decision is vacuous.
	table2 := payoff.Table2()
	vac := metricsFixture(t, reg, table2[1:3], []float64{0, 0}, 10)
	for i := 0; i < 3; i++ {
		if _, err := vac.Process(Alert{Type: 0}); err != nil {
			t.Fatal(err)
		}
	}
	if got := reg.Snapshot().Counters[MetricVacuousTotal]; got != 3 {
		t.Fatalf("vacuous counter = %d, want 3", got)
	}
}

// TestEngineNilMetrics: a nil registry must leave the engine fully
// functional and identical in behavior.
func TestEngineNilMetrics(t *testing.T) {
	table2 := payoff.Table2()
	with := metricsFixture(t, obs.NewRegistry(), table2[1:3], []float64{30, 15}, 20)
	without := metricsFixture(t, nil, table2[1:3], []float64{30, 15}, 20)
	for i := 0; i < 5; i++ {
		a := Alert{Type: i % 2, Time: time.Duration(i) * time.Minute}
		dw, err := with.Process(a)
		if err != nil {
			t.Fatal(err)
		}
		dn, err := without.Process(a)
		if err != nil {
			t.Fatal(err)
		}
		if dw.Theta != dn.Theta || dw.Warned != dn.Warned || dw.BudgetAfter != dn.BudgetAfter {
			t.Fatalf("metrics changed behavior: %+v vs %+v", dw, dn)
		}
	}
}
