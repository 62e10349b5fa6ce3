package adversary

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"github.com/auditgames/sag/internal/core"
	"github.com/auditgames/sag/internal/game"
	"github.com/auditgames/sag/internal/history"
	"github.com/auditgames/sag/internal/payoff"
)

// fixture builds a single-type world: a base day of n alerts spread over
// working hours plus matching historical curves.
func fixture(t *testing.T, n, histDays int) (*game.Instance, []core.Alert, *history.Curves) {
	t.Helper()
	inst, err := game.NewInstance([]payoff.Payoff{payoff.Table2()[1]}, []float64{1})
	if err != nil {
		t.Fatal(err)
	}
	var day []core.Alert
	var recs []history.Record
	for d := 0; d < histDays; d++ {
		for i := 0; i < n; i++ {
			at := 7*time.Hour + time.Duration(i)*(10*time.Hour)/time.Duration(n)
			recs = append(recs, history.Record{Day: d, Type: 0, Time: at})
			if d == 0 {
				day = append(day, core.Alert{Type: 0, Time: at})
			}
		}
	}
	curves, err := history.NewCurves(recs, 1, histDays)
	if err != nil {
		t.Fatal(err)
	}
	return inst, day, curves
}

func TestRunValidation(t *testing.T) {
	inst, day, curves := fixture(t, 10, 3)
	base := Config{Instance: inst, Budget: 5, Day: day, Curves: curves, Strategy: UniformAttacker{}, Trials: 1}
	bad := base
	bad.Instance = nil
	if _, err := Run(bad); err == nil {
		t.Error("nil instance should be rejected")
	}
	bad = base
	bad.Strategy = nil
	if _, err := Run(bad); err == nil {
		t.Error("nil strategy should be rejected")
	}
	bad = base
	bad.Trials = 0
	if _, err := Run(bad); err == nil {
		t.Error("zero trials should be rejected")
	}
}

func TestStrategiesPlanSensibly(t *testing.T) {
	inst, _, curves := fixture(t, 40, 5)
	ctx := PlanContext{Instance: inst, Budget: 5, Curves: curves, Rand: rand.New(rand.NewSource(1))}

	u, ok := UniformAttacker{}.Plan(ctx)
	if !ok || u.Time < 0 || u.Time >= 24*time.Hour {
		t.Fatalf("uniform plan %+v ok=%v", u, ok)
	}
	e, ok := EndOfDayAttacker{}.Plan(ctx)
	if !ok || e.Time < 23*time.Hour {
		t.Fatalf("end-of-day plan %+v ok=%v", e, ok)
	}
	b, ok := BestResponseAttacker{}.Plan(ctx)
	if ok && (b.Type != 0 || b.Time < 0) {
		t.Fatalf("best-response plan %+v", b)
	}
	if (UniformAttacker{}).Name() == "" || (EndOfDayAttacker{}).Name() == "" || (BestResponseAttacker{}).Name() == "" {
		t.Fatal("strategies must be named")
	}
}

func TestMonteCarloMatchesAnalyticValue(t *testing.T) {
	// The heart of the package: realized auditor utility over many trials
	// must match the mean analytic scheme value (LP (3) objective) at the
	// attack alerts.
	inst, day, curves := fixture(t, 40, 5)
	rep, err := Run(Config{
		Instance:          inst,
		Budget:            5,
		Day:               day,
		Curves:            curves,
		RollbackThreshold: history.DefaultRollbackThreshold,
		Strategy:          UniformAttacker{},
		Trials:            600,
		Seed:              17,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Attacked != rep.Trials {
		t.Fatalf("uniform attacker should always attack: %d/%d", rep.Attacked, rep.Trials)
	}
	// Monte-Carlo error: utilities are bounded by ~[-400, 100]; with 600
	// trials the standard error of the mean is ≈ 200/√600 ≈ 8; allow 5 SE.
	if diff := math.Abs(rep.MeanAuditor - rep.MeanExpected); diff > 40 {
		t.Fatalf("realized auditor mean %.1f vs analytic %.1f (diff %.1f)",
			rep.MeanAuditor, rep.MeanExpected, diff)
	}
	if rep.Warnings == 0 {
		t.Fatal("no warnings across 600 trials is implausible at positive coverage")
	}
	if rep.Quits != rep.Warnings {
		// In the Table 2 regime every warned rational attacker quits.
		t.Fatalf("quits %d != warnings %d under OSSP", rep.Quits, rep.Warnings)
	}
	if rep.Caught != 0 {
		// Theorem 3: p0 = 0, silent alerts are never audited, so the
		// attack is never caught — deterrence works via the warning.
		t.Fatalf("caught %d attacks; OSSP should never audit silent alerts", rep.Caught)
	}
}

func TestWarnedAttackerGetsZero(t *testing.T) {
	inst, day, curves := fixture(t, 40, 5)
	rep, err := Run(Config{
		Instance:          inst,
		Budget:            5,
		Day:               day,
		Curves:            curves,
		RollbackThreshold: history.DefaultRollbackThreshold,
		Strategy:          UniformAttacker{},
		Trials:            300,
		Seed:              3,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Attacker's mean utility = P(silent)·U_au ≤ U_au, strictly less when
	// warnings happen.
	if rep.MeanAttacker >= 400 {
		t.Fatalf("attacker mean %.1f should be reduced by warnings", rep.MeanAttacker)
	}
	if rep.MeanAttacker <= 0 {
		t.Fatalf("attacker mean %.1f should be positive below deterrence coverage", rep.MeanAttacker)
	}
}

func TestEndOfDayVsUniform(t *testing.T) {
	// The end-of-day attacker's realized utility should be no worse for
	// him than the uniform attacker's (that's why the paper worries about
	// him); with rollback both must stay below U_au.
	inst, day, curves := fixture(t, 40, 5)
	run := func(s Strategy) *Report {
		rep, err := Run(Config{
			Instance:          inst,
			Budget:            5,
			Day:               day,
			Curves:            curves,
			RollbackThreshold: history.DefaultRollbackThreshold,
			Strategy:          s,
			Trials:            300,
			Seed:              7,
		})
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	uni := run(UniformAttacker{})
	late := run(EndOfDayAttacker{})
	if late.MeanAttacker > 400+1e-9 || uni.MeanAttacker > 400+1e-9 {
		t.Fatal("no attacker can beat the unprotected payoff")
	}
}

func TestBestResponseBeatsUniformForAttacker(t *testing.T) {
	inst, day, curves := fixture(t, 40, 5)
	run := func(s Strategy) *Report {
		rep, err := Run(Config{
			Instance:          inst,
			Budget:            5,
			Day:               day,
			Curves:            curves,
			RollbackThreshold: history.DefaultRollbackThreshold,
			Strategy:          s,
			Trials:            400,
			Seed:              23,
		})
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	uni := run(UniformAttacker{})
	br := run(BestResponseAttacker{})
	if br.Attacked == 0 {
		t.Skip("best-response attacker chose to stay out at this budget")
	}
	// Allow Monte-Carlo noise; the planner optimizes an expected model, so
	// require it not to be substantially worse than naive timing.
	if br.MeanAttacker < uni.MeanAttacker-60 {
		t.Fatalf("best-response attacker (%.1f) much worse than uniform (%.1f)",
			br.MeanAttacker, uni.MeanAttacker)
	}
}

func TestCloseCycleCalibration(t *testing.T) {
	// The engine's end-of-cycle audit draw must realize, on average, the
	// budget it charged in real time.
	inst, day, curves := fixture(t, 40, 5)
	rb, err := history.NewRollback(curves, history.DefaultRollbackThreshold)
	if err != nil {
		t.Fatal(err)
	}
	newEngine := func() *core.Engine {
		eng, err := core.NewEngine(core.Config{
			Instance:  inst,
			Budget:    5,
			Estimator: rb,
			Policy:    core.PolicyOSSP,
			Rand:      rand.New(rand.NewSource(2)),
		})
		if err != nil {
			t.Fatal(err)
		}
		return eng
	}
	eng := newEngine()
	for _, a := range day {
		if _, err := eng.Process(a); err != nil {
			t.Fatal(err)
		}
	}
	charged := eng.Status().Budget - eng.RemainingBudget()
	// A close draws one plan and ends the cycle, so each draw closes a fresh
	// engine restored to the same cycle, under its own seed.
	st := eng.ExportState()
	var total float64
	const draws = 400
	for i := 0; i < draws; i++ {
		fresh := newEngine()
		if err := fresh.RestoreState(st); err != nil {
			t.Fatal(err)
		}
		outcomes, cost, err := fresh.CloseCycle(int64(i), nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(outcomes) != len(day) {
			t.Fatalf("outcomes %d, want %d", len(outcomes), len(day))
		}
		total += cost
	}
	mean := total / draws
	if math.Abs(mean-charged) > 0.25*charged+0.5 {
		t.Fatalf("mean realized audit cost %.2f vs charged budget %.2f", mean, charged)
	}
}
