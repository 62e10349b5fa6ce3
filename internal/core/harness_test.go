package core

import (
	"context"
	"errors"
	"math/rand"
	"testing"
	"time"

	"github.com/auditgames/sag/internal/dist"
	"github.com/auditgames/sag/internal/game"
	"github.com/auditgames/sag/internal/payoff"
)

// The test harness. Every test of this package builds its engine with
// testEngine, passing modifiers for what it needs other than the standard
// engine; only the constructor-refusal table calls NewEngine itself.

// fixtureRates are the Table-1 rates, rounded, of multiInstance's seven types.
var fixtureRates = []float64{196, 29, 140, 10, 25, 15, 43}

// testEngine builds the standard engine — multiInstance under PolicyOSSP
// with budget 50, the constant fixtureRates and a rand seeded 1 — after
// mods, applied in order.
func testEngine(t testing.TB, mods ...func(*Config)) *Engine {
	t.Helper()
	cfg := Config{
		Instance:  multiInstance(t),
		Budget:    50,
		Estimator: constEstimator(fixtureRates...),
		Policy:    PolicyOSSP,
		Rand:      rand.New(rand.NewSource(1)),
	}
	for _, mod := range mods {
		mod(&cfg)
	}
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// withInstance, withBudget, withRates, withSeed and withJournal each set one
// Config field; withRates sets constant rates.
func withInstance(inst *game.Instance) func(*Config) {
	return func(c *Config) { c.Instance = inst }
}

func withBudget(b float64) func(*Config) { return func(c *Config) { c.Budget = b } }

func withRates(rates ...float64) func(*Config) {
	return func(c *Config) { c.Estimator = constEstimator(rates...) }
}

func withSeed(seed int64) func(*Config) {
	return func(c *Config) { c.Rand = rand.New(rand.NewSource(seed)) }
}

func withJournal(journal JournalFunc) func(*Config) {
	return func(c *Config) { c.Journal = journal }
}

// single is the one-type game of the engine tests: singleInstance with
// budget 20 under seed 42.
func single(t testing.TB) func(*Config) {
	return func(c *Config) {
		c.Instance, c.Budget, c.Rand = singleInstance(t), 20, rand.New(rand.NewSource(42))
	}
}

// sseBaseline runs the online-SSE baseline policy, which needs no rand.
func sseBaseline(c *Config) { c.Policy, c.Rand = PolicySSE, nil }

// constEstimator returns fixed future rates regardless of time.
func constEstimator(rates ...float64) Estimator {
	return EstimatorFunc(func(time.Duration) ([]float64, error) {
		out := make([]float64, len(rates))
		copy(out, rates)
		return out, nil
	})
}

// singleInstance is Table 2's first alert type alone, at audit cost 1.
func singleInstance(t testing.TB) *game.Instance {
	t.Helper()
	inst, err := game.NewInstance([]payoff.Payoff{payoff.Table2()[1]}, []float64{1})
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

// multiInstance is Table 2's seven alert types, each at audit cost 1.
func multiInstance(t testing.TB) *game.Instance {
	t.Helper()
	table2 := payoff.Table2()
	inst, err := game.NewInstance(table2[1:], game.UniformCost(7, 1))
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

// recordInto is a journal that appends every decision to *journal and
// needs no wait.
func recordInto(journal *[]DecisionRecord) JournalFunc {
	return func(rec DecisionRecord) (func() error, error) {
		*journal = append(*journal, rec)
		return nil, nil
	}
}

// errSolverDown is what flakySolver fails with.
var errSolverDown = errors.New("solver down")

// flakySolver is the real solver, failing with errSolverDown while *down.
func flakySolver(down *bool) SSESolveFunc {
	return func(ctx context.Context, inst *game.Instance, budget float64, futures []dist.Poisson) (*game.Result, error) {
		if *down {
			return nil, errSolverDown
		}
		return game.SolveOnlineSSECtx(ctx, inst, budget, futures)
	}
}
