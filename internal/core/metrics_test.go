package core

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"github.com/auditgames/sag/internal/game"
	"github.com/auditgames/sag/internal/obs"
	"github.com/auditgames/sag/internal/payoff"
)

// metricsFixture is testEngine reporting to reg on the game of pays, each
// at audit cost 1, with constant rates, the budget and seed 7.
func metricsFixture(t *testing.T, reg *obs.Registry, pays []payoff.Payoff, rates []float64, budget float64) *Engine {
	t.Helper()
	inst, err := game.NewInstance(pays, game.UniformCost(len(pays), 1))
	if err != nil {
		t.Fatal(err)
	}
	return testEngine(t, withInstance(inst), withRates(rates...), withBudget(budget), withSeed(7), func(c *Config) { c.Metrics = reg })
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

// serviceReadings reads the service counters — accesses, alerts, warned,
// quits — and the flagged gauge of an unlabeled engine.
func serviceReadings(reg *obs.Registry) [5]float64 {
	snap := reg.Snapshot()
	return [5]float64{
		float64(snap.Counters[MetricAccessesTotal]), float64(snap.Counters[MetricAlertsTotal]),
		float64(snap.Counters[MetricWarnedTotal]), float64(snap.Counters[MetricQuitsTotal]),
		snap.Gauges[MetricFlaggedUsers],
	}
}

// TestRacingFirstQuitsCountOnce: goroutines applying the same employee's
// quit at once flag them once, and the quit counter moves once — what to
// count is decided under the budget lock, by the apply that flagged them.
func TestRacingFirstQuitsCountOnce(t *testing.T) {
	const racers = 16
	for round := 0; round < 50; round++ {
		reg := obs.NewRegistry()
		table2 := payoff.Table2()
		eng := metricsFixture(t, reg, table2[1:3], []float64{30, 15}, 20)
		var wg sync.WaitGroup
		start := make(chan struct{})
		for i := 0; i < racers; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				if err := eng.Apply(Record{Kind: KindQuit, Employee: 7}, nil); err != nil {
					t.Error(err)
				}
			}()
		}
		close(start)
		wg.Wait()
		if got := serviceReadings(reg); got != [5]float64{0, 0, 0, 1, 1} {
			t.Fatalf("round %d: %d racing first quits read (accesses, alerts, warned, quits, flagged) %v, want one quit and one flagged", round, racers, got)
		}
	}
}

// decisionReadings reads the decision counters of an unlabeled OSSP engine:
// decisions, vacuous decisions and degraded decisions (both rungs).
func decisionReadings(reg *obs.Registry) [3]uint64 {
	snap := reg.Snapshot()
	return [3]uint64{
		snap.Counters[MetricDecisionsTotal+`{policy="OSSP"}`], snap.Counters[MetricVacuousTotal],
		snap.Counters[MetricFallbackTotal+`{level="last_good"}`] + snap.Counters[MetricFallbackTotal+`{level="static"}`],
	}
}

// TestServiceCountersWaitForTheJournal: the service and decision counters
// move only once the record's journal wait has returned nil. A refused
// enqueue and a failed wait are returned to the caller and move none, for a
// record through Apply and a decision — solved, vacuous or degraded —
// through ProcessContext alike, and a Preview of a vacuous game moves none
// either; the flagged gauge follows the flagged set, which a failed wait
// leaves applied in memory.
func TestServiceCountersWaitForTheJournal(t *testing.T) {
	errRefused, errFsync := errors.New("disk full"), errors.New("fsync failed")
	var fail error // the journal's next failure; nil journals fine
	journal := func(Record) (func() error, error) {
		switch f := fail; f {
		case errRefused:
			return nil, f
		case errFsync:
			return func() error { return f }, nil
		}
		return func() error { return nil }, nil
	}
	reg := obs.NewRegistry()
	table2 := payoff.Table2()
	inst, err := game.NewInstance(table2[1:3], game.UniformCost(2, 1))
	if err != nil {
		t.Fatal(err)
	}
	rates, errEstimate := []float64{30, 15}, error(nil)
	eng := testEngine(t, withInstance(inst), withBudget(20), withSeed(7), withJournal(func(d DecisionRecord) (func() error, error) {
		return journal(Record{Kind: KindDecision, Decision: d})
	}), func(c *Config) {
		c.Estimator = EstimatorFunc(func(time.Duration) ([]float64, error) { return rates, errEstimate })
		c.Metrics, c.Fallback = reg, true
	})
	decide := func(r []float64, estErr error) func() error {
		return func() error {
			rates, errEstimate = r, estErr
			_, err := eng.ProcessContext(context.Background(), Alert{Type: 0, Time: 9 * time.Hour})
			return err
		}
	}
	solved, degraded, vacuous := decide([]float64{30, 15}, nil), decide(nil, errors.New("estimator down")), decide([]float64{0, 0}, nil)
	meta := func() error {
		return eng.Apply(Record{Kind: KindMeta, Meta: Meta{Alerted: true, Warned: true}}, journal)
	}
	quit := func(emp int) func() error {
		return func() error { return eng.Apply(Record{Kind: KindQuit, Employee: emp}, journal) }
	}
	for i, f := range []error{errRefused, errFsync} {
		fail = f
		for _, do := range []func() error{solved, degraded, vacuous, meta, quit(i)} {
			if err := do(); !errors.Is(err, f) {
				t.Fatalf("journal failing with %q: err %v", f, err)
			}
		}
		st := eng.Status()
		if got, want := serviceReadings(reg), [5]float64{4: float64(st.FlaggedUsers)}; got != want {
			t.Fatalf("journal failing with %q: readings %v, want %v", f, got, want)
		}
		if got := decisionReadings(reg); got != [3]uint64{} {
			t.Fatalf("journal failing with %q: decisions, vacuous, degraded read %v, want none", f, got)
		}
	}
	fail, rates, errEstimate = nil, []float64{0, 0}, nil
	if d, err := eng.Preview(Alert{Type: 0, Time: 9 * time.Hour}); err != nil || !d.Vacuous {
		t.Fatalf("Preview of a vacuous game: %+v, %v", d, err)
	}
	if got := decisionReadings(reg); got != [3]uint64{} {
		t.Fatalf("a Preview moved decisions, vacuous, degraded to %v", got)
	}
	for _, do := range []func() error{solved, degraded, vacuous, meta, quit(3)} {
		if err := do(); err != nil {
			t.Fatal(err)
		}
	}
	if got := serviceReadings(reg); got[0] != 4 || got[1] != 4 || got[2] < 1 || got[3] != 1 || got[4] != 2 {
		t.Fatalf("durable records read %v, want 4 accesses, 4 alerts, ≥1 warned, 1 quit and 2 flagged (one left by the failed wait)", got)
	}
	if got := decisionReadings(reg); got != [3]uint64{3, 1, 1} {
		t.Fatalf("durable decisions read %v, want 3 decisions, 1 vacuous and 1 degraded", got)
	}
}
