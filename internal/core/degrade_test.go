package core

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"testing"
	"time"

	"github.com/auditgames/sag/internal/dist"
	"github.com/auditgames/sag/internal/fallback"
	"github.com/auditgames/sag/internal/game"
)

// blockingSolver returns an SSESolveFunc that never finishes on its own: it
// waits for ctx and returns its error, modeling a solve that outlives any
// deadline.
func blockingSolver() SSESolveFunc {
	return func(ctx context.Context, _ *game.Instance, _ float64, _ []dist.Poisson) (*game.Result, error) {
		<-ctx.Done()
		return nil, ctx.Err()
	}
}

// failingSolver returns an SSESolveFunc that always errors.
func failingSolver(err error) SSESolveFunc {
	return func(context.Context, *game.Instance, float64, []dist.Poisson) (*game.Result, error) {
		return nil, err
	}
}

func TestNegativeDeadlineRejected(t *testing.T) {
	_, err := NewEngine(Config{
		Instance:         singleInstance(t),
		Budget:           1,
		Estimator:        constEstimator(10),
		Rand:             rand.New(rand.NewSource(1)),
		DecisionDeadline: -time.Second,
	})
	if err == nil {
		t.Fatal("negative deadline must be rejected")
	}
}

func TestDeadlineWithoutFallbackErrors(t *testing.T) {
	e, err := NewEngine(Config{
		Instance:         singleInstance(t),
		Budget:           5,
		Estimator:        constEstimator(10),
		Rand:             rand.New(rand.NewSource(1)),
		DecisionDeadline: 10 * time.Millisecond,
		SSESolve:         blockingSolver(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Process(Alert{Type: 0}); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want DeadlineExceeded without fallback, got %v", err)
	}
	if got := e.RemainingBudget(); got != 5 {
		t.Fatalf("failed decision charged budget: remaining %g, want 5", got)
	}
	if n := len(e.Decisions()); n != 0 {
		t.Fatalf("failed decision was recorded: %d decisions", n)
	}
}

func TestDeadlineWithFallbackDegrades(t *testing.T) {
	e, err := NewEngine(Config{
		Instance:         singleInstance(t),
		Budget:           5,
		Estimator:        constEstimator(10),
		Rand:             rand.New(rand.NewSource(1)),
		DecisionDeadline: 10 * time.Millisecond,
		SSESolve:         blockingSolver(),
		Fallback:         true,
	})
	if err != nil {
		t.Fatal(err)
	}
	d, err := e.Process(Alert{Type: 0})
	if err != nil {
		t.Fatalf("Process with fallback errored: %v", err)
	}
	if d.Fallback != fallback.Static {
		t.Fatalf("first-alert timeout should land on static, got %v", d.Fallback)
	}
	if d.Warned {
		t.Fatal("static fallback must never warn (Theorem 2 degradation)")
	}
	if d.Scheme.WarnProbability() != 0 {
		t.Fatalf("static scheme warns with probability %g", d.Scheme.WarnProbability())
	}
	if d.Theta < 0 || d.Theta > 1 {
		t.Fatalf("static audit probability %g outside [0,1]", d.Theta)
	}
}

// TestDeadlineNoticedBetweenStages: a solve that ignores its context and
// returns after the deadline is caught at the boundary between the SSE and
// signaling stages. Its equilibrium is still a good one, so the decision
// lands on the last-good rung, not the static one.
func TestDeadlineNoticedBetweenStages(t *testing.T) {
	e, err := NewEngine(Config{
		Instance:         singleInstance(t),
		Budget:           5,
		Estimator:        constEstimator(10),
		Rand:             rand.New(rand.NewSource(1)),
		DecisionDeadline: 5 * time.Millisecond,
		SSESolve: func(_ context.Context, inst *game.Instance, budget float64, futures []dist.Poisson) (*game.Result, error) {
			time.Sleep(20 * time.Millisecond)
			return game.SolveOnlineSSE(inst, budget, futures)
		},
		Fallback: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	d, err := e.Process(Alert{Type: 0})
	if err != nil {
		t.Fatal(err)
	}
	if d.Fallback != fallback.LastGood {
		t.Fatalf("late solve committed at level %v, want last-good", d.Fallback)
	}
}

func TestCanceledContextPropagates(t *testing.T) {
	e := newOSSPEngine(t, singleInstance(t), 5, constEstimator(10))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.ProcessContext(ctx, Alert{Type: 0}); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}

func TestSolverErrorFallsBackToLastGood(t *testing.T) {
	boom := errors.New("solver down")
	solverErr := false
	e, err := NewEngine(Config{
		Instance:  multiInstance(t),
		Budget:    10,
		Estimator: constEstimator(4, 3, 5, 2, 6, 1, 3),
		Rand:      rand.New(rand.NewSource(1)),
		Fallback:  true,
		SSESolve: func(ctx context.Context, inst *game.Instance, budget float64, futures []dist.Poisson) (*game.Result, error) {
			if solverErr {
				return nil, boom
			}
			return game.SolveOnlineSSECtx(ctx, inst, budget, futures)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	good, err := e.Process(Alert{Type: 2})
	if err != nil || good.Fallback != fallback.None {
		t.Fatalf("clean decision failed: %v, level %v", err, good.Fallback)
	}
	solverErr = true
	d, err := e.Process(Alert{Type: 3})
	if err != nil {
		t.Fatalf("Process with failing solver errored: %v", err)
	}
	if d.Fallback != fallback.LastGood {
		t.Fatalf("Fallback = %v, want last_good", d.Fallback)
	}
	// The degraded decision reuses the previous equilibrium's coverage for
	// its own type.
	if d.SSE != good.SSE {
		t.Fatal("last-good rung did not reuse the previous equilibrium")
	}
	if d.Theta != good.SSE.Coverage[3] {
		t.Fatalf("Theta = %g, want coverage[3] = %g", d.Theta, good.SSE.Coverage[3])
	}
}

func TestPreviewNeverDegrades(t *testing.T) {
	boom := errors.New("solver down")
	e, err := NewEngine(Config{
		Instance:  singleInstance(t),
		Budget:    5,
		Estimator: constEstimator(10),
		Rand:      rand.New(rand.NewSource(1)),
		Fallback:  true,
		SSESolve:  failingSolver(boom),
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Preview(Alert{Type: 0}); !errors.Is(err, boom) {
		t.Fatalf("Preview must report the primary pipeline's error, got %v", err)
	}
}

// TestEngineConcurrentAccess exercises the Engine's documented concurrency
// contract under the race detector: Process, Preview, and every read
// accessor from concurrent goroutines, then NewCycle once all settle.
func TestEngineConcurrentAccess(t *testing.T) {
	e, err := NewEngine(Config{
		Instance:  multiInstance(t),
		Budget:    50,
		Estimator: constEstimator(4, 3, 5, 2, 6, 1, 3),
		Rand:      rand.New(rand.NewSource(7)),
	})
	if err != nil {
		t.Fatal(err)
	}
	const workers, perWorker = 6, 10
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				if _, err := e.Process(Alert{Type: (w + i) % 7}); err != nil {
					t.Errorf("worker %d: %v", w, err)
					return
				}
				_ = e.RemainingBudget()
				_ = e.Summary()
				_, _ = e.Preview(Alert{Type: i % 7})
			}
		}(w)
	}
	wg.Wait()
	if n := len(e.Decisions()); n != workers*perWorker {
		t.Fatalf("recorded %d decisions, want %d", n, workers*perWorker)
	}
	if err := e.NewCycle(50); err != nil {
		t.Fatal(err)
	}
	if n := len(e.Decisions()); n != 0 {
		t.Fatalf("NewCycle left %d decisions", n)
	}
}
