package faultinject_test

import (
	"context"
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"

	"github.com/auditgames/sag/internal/core"
	"github.com/auditgames/sag/internal/dist"
	"github.com/auditgames/sag/internal/fallback"
	"github.com/auditgames/sag/internal/faultinject"
	"github.com/auditgames/sag/internal/game"
	"github.com/auditgames/sag/internal/obs"
	"github.com/auditgames/sag/internal/payoff"
)

// armed is a late-binding injection slot: the wrappers capture the slot, so
// a test can run the engine clean, then arm a fault Point between alerts.
type armed struct {
	mu sync.Mutex
	p  *faultinject.Point
}

func (a *armed) set(p *faultinject.Point) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.p = p
}

func (a *armed) get() *faultinject.Point {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.p
}

// chaosEngine wires a multi-type OSSP engine whose estimator and SSE solver
// both pass through late-binding injection slots.
type chaosEngine struct {
	eng    *core.Engine
	reg    *obs.Registry
	est    *armed
	solver *armed
	inst   *game.Instance
}

func newChaosEngine(t *testing.T, budget float64) *chaosEngine {
	t.Helper()
	table2 := payoff.Table2()
	inst, err := game.NewInstance(table2[1:], game.UniformCost(7, 1))
	if err != nil {
		t.Fatal(err)
	}
	ce := &chaosEngine{reg: obs.NewRegistry(), est: &armed{}, solver: &armed{}, inst: inst}
	base := core.EstimatorFunc(func(time.Duration) ([]float64, error) {
		return []float64{4, 3, 5, 2, 6, 1, 3}, nil
	})
	ce.eng, err = core.NewEngine(core.Config{
		Instance: inst,
		Budget:   budget,
		Estimator: core.EstimatorFunc(func(at time.Duration) ([]float64, error) {
			return faultinject.Estimator(ce.est.get(), base).FutureRates(at)
		}),
		Policy:   core.PolicyOSSP,
		Rand:     rand.New(rand.NewSource(11)),
		Metrics:  ce.reg,
		Fallback: true,
		SSESolve: func(ctx context.Context, inst *game.Instance, budget float64, futures []dist.Poisson) (*game.Result, error) {
			return faultinject.SSESolve(ce.solver.get(), nil)(ctx, inst, budget, futures)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return ce
}

func (ce *chaosEngine) fallbackCount(t *testing.T, lvl fallback.Level) uint64 {
	t.Helper()
	return ce.reg.Counter(core.MetricFallbackTotal, "", obs.L("level", lvl.String())).Value()
}

// checkBudgetChain asserts every recorded decision charged the budget
// exactly once and consistently: BudgetAfter follows from BudgetBefore, the
// chain is contiguous across decisions, and the engine's remaining budget is
// the chain's tail.
func checkBudgetChain(t *testing.T, ce *chaosEngine) {
	t.Helper()
	ds := ce.eng.Decisions()
	prev := ce.eng.Status().Budget
	for i, d := range ds {
		if d.BudgetBefore != prev {
			t.Fatalf("decision %d: BudgetBefore = %g, want %g (chain broken)", i, d.BudgetBefore, prev)
		}
		V := 1.0 // UniformCost(7, 1)
		want := math.Max(0, d.BudgetBefore-d.AuditCharge*V)
		if math.Abs(d.BudgetAfter-want) > 1e-12 {
			t.Fatalf("decision %d: BudgetAfter = %g, want %g (charge %g)", i, d.BudgetAfter, want, d.AuditCharge)
		}
		if d.AuditCharge < 0 || d.AuditCharge > 1+1e-9 {
			t.Fatalf("decision %d: AuditCharge = %g outside [0,1]", i, d.AuditCharge)
		}
		prev = d.BudgetAfter
	}
	if got := ce.eng.RemainingBudget(); got != prev {
		t.Fatalf("RemainingBudget = %g, want chain tail %g", got, prev)
	}
}

// TestFallbackLevels is the satellite table: each injected failure mode must
// degrade to its expected ladder rung, keep the budget accounting exact, and
// increment exactly the matching fallback counter.
func TestFallbackLevels(t *testing.T) {
	cases := []struct {
		name string
		// prime runs one clean decision first; arm injects the fault before
		// the probe alert.
		prime bool
		arm   func(ce *chaosEngine)
		want  fallback.Level
	}{
		{
			name: "estimator error with no prior state degrades to static",
			arm: func(ce *chaosEngine) {
				ce.est.set(faultinject.New("estimator", faultinject.Config{Seed: 1, ErrorRate: 1}))
			},
			want: fallback.Static,
		},
		{
			name:  "solver error degrades to last-good",
			prime: true,
			arm: func(ce *chaosEngine) {
				ce.solver.set(faultinject.New("sse", faultinject.Config{Seed: 1, ErrorRate: 1}))
			},
			want: fallback.LastGood,
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			ce := newChaosEngine(t, 20)
			alert := core.Alert{Type: 2, Time: time.Minute}
			if c.prime {
				d, err := ce.eng.Process(alert)
				if err != nil {
					t.Fatalf("priming decision failed: %v", err)
				}
				if d.Fallback != fallback.None {
					t.Fatalf("priming decision degraded to %v", d.Fallback)
				}
			}
			c.arm(ce)
			d, err := ce.eng.Process(alert)
			if err != nil {
				t.Fatalf("Process with injected fault errored: %v", err)
			}
			if d.Fallback != c.want {
				t.Fatalf("Fallback = %v, want %v", d.Fallback, c.want)
			}
			if d.Fallback == fallback.Static && (d.Warned || d.Scheme.WarnProbability() != 0 || d.Theta < 0 || d.Theta > 1) {
				t.Fatalf("static rung must never warn and audit with a probability: warned %v, P(warn) %g, θ %g",
					d.Warned, d.Scheme.WarnProbability(), d.Theta)
			}
			checkBudgetChain(t, ce)
			for _, lvl := range []fallback.Level{fallback.LastGood, fallback.Static} {
				want := uint64(0)
				if lvl == c.want {
					want = 1
				}
				if got := ce.fallbackCount(t, lvl); got != want {
					t.Errorf("fallback counter %v = %d, want %d", lvl, got, want)
				}
			}
		})
	}
}

// TestSolverPanicContained injects a solver panic and asserts the engine
// converts it into a degraded decision instead of crashing, and stays usable
// afterwards.
func TestSolverPanicContained(t *testing.T) {
	ce := newChaosEngine(t, 20)
	ce.solver.set(faultinject.New("sse", faultinject.Config{Seed: 1, PanicRate: 1}))
	d, err := ce.eng.Process(core.Alert{Type: 1})
	if err != nil {
		t.Fatalf("Process with injected panic errored: %v", err)
	}
	if !d.Fallback.Degraded() {
		t.Fatalf("panic did not degrade: level %v", d.Fallback)
	}
	ce.solver.set(nil)
	d, err = ce.eng.Process(core.Alert{Type: 1})
	if err != nil || d.Fallback != fallback.None {
		t.Fatalf("engine unusable after contained panic: %v, level %v", err, d.Fallback)
	}
	checkBudgetChain(t, ce)
}

// TestChaosNeverErrors runs a long alert stream under randomized estimator
// and solver faults (errors, panics, latency — which only makes a decision
// slow, never degraded) and asserts the acceptance property: once a cycle is
// open, Process never returns an error — every alert gets a budget-consistent
// decision at some fallback level — and the degraded count matches the
// fallback counters.
func TestChaosNeverErrors(t *testing.T) {
	ce := newChaosEngine(t, 50)
	ce.est.set(faultinject.New("estimator", faultinject.Config{Seed: 3, ErrorRate: 0.15}))
	ce.solver.set(faultinject.New("sse", faultinject.Config{
		Seed: 4, ErrorRate: 0.15, PanicRate: 0.1, LatencyRate: 0.1, Latency: time.Millisecond,
	}))
	rng := rand.New(rand.NewSource(9))
	const alerts = 200
	degraded := 0
	for i := 0; i < alerts; i++ {
		a := core.Alert{Type: rng.Intn(7), Time: time.Duration(i) * time.Second}
		d, err := ce.eng.Process(a)
		if err != nil {
			t.Fatalf("alert %d: Process errored under injection: %v", i, err)
		}
		if d.Fallback.Degraded() {
			degraded++
		}
	}
	if ds := ce.eng.Decisions(); len(ds) != alerts {
		t.Fatalf("recorded %d decisions, want %d", len(ds), alerts)
	}
	checkBudgetChain(t, ce)
	if degraded == 0 {
		t.Fatal("chaos schedule injected no faults; rates or seed are wrong")
	}
	if degraded == alerts {
		t.Fatal("every decision degraded; primary pipeline never ran")
	}
	var counted uint64
	for _, lvl := range []fallback.Level{fallback.LastGood, fallback.Static} {
		counted += ce.fallbackCount(t, lvl)
	}
	if counted != uint64(degraded) {
		t.Fatalf("fallback counters sum to %d, want %d degraded decisions", counted, degraded)
	}
	// Invalid alerts must still error — no ladder rung can cover them.
	if _, err := ce.eng.Process(core.Alert{Type: 99}); err == nil {
		t.Fatal("out-of-range type must error even with fallback enabled")
	}
}

// TestChaosConcurrent hammers one shared engine from many goroutines under
// fault injection while readers poll the cycle state. Run under -race this
// is the satellite's concurrency-contract test: no errors, no races, and a
// linearized budget chain at the end.
func TestChaosConcurrent(t *testing.T) {
	ce := newChaosEngine(t, 100)
	ce.est.set(faultinject.New("estimator", faultinject.Config{Seed: 5, ErrorRate: 0.1}))
	ce.solver.set(faultinject.New("sse", faultinject.Config{Seed: 6, ErrorRate: 0.1, PanicRate: 0.05}))

	const workers, perWorker = 8, 25
	errs := make(chan error, workers*perWorker)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + w)))
			for i := 0; i < perWorker; i++ {
				a := core.Alert{Type: rng.Intn(7), Time: time.Duration(i) * time.Second}
				if _, err := ce.eng.Process(a); err != nil {
					errs <- err
				}
			}
		}(w)
	}
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		for i := 0; i < 200; i++ {
			_ = ce.eng.RemainingBudget()
			_ = ce.eng.Summary()
		}
	}()
	wg.Wait()
	<-readerDone
	close(errs)
	for err := range errs {
		t.Errorf("concurrent Process errored: %v", err)
	}
	if ds := ce.eng.Decisions(); len(ds) != workers*perWorker {
		t.Fatalf("recorded %d decisions, want %d", len(ds), workers*perWorker)
	}
	checkBudgetChain(t, ce)
	// The engine must accept a fresh cycle after the storm.
	if err := ce.eng.NewCycle(100); err != nil {
		t.Fatalf("NewCycle after chaos: %v", err)
	}
	if _, err := ce.eng.Process(core.Alert{Type: 0}); err != nil {
		t.Fatalf("Process in fresh cycle: %v", err)
	}
}
