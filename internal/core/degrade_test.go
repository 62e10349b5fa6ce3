package core

import (
	"context"
	"errors"
	"sync"
	"testing"

	"github.com/auditgames/sag/internal/fallback"
)

func TestCanceledContextPropagates(t *testing.T) {
	e := testEngine(t, single(t), withBudget(5), withRates(10))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.ProcessContext(ctx, Alert{Type: 0}); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}

func TestSolverErrorFallsBackToLastGood(t *testing.T) {
	solverErr := false
	e := testEngine(t, withBudget(10), withRates(4, 3, 5, 2, 6, 1, 3), func(c *Config) {
		c.Fallback, c.SSESolve = true, flakySolver(&solverErr)
	})
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
	down := true
	e := testEngine(t, withInstance(singleInstance(t)), withBudget(5), withRates(10), func(c *Config) {
		c.Fallback, c.SSESolve = true, flakySolver(&down)
	})
	if _, err := e.Preview(Alert{Type: 0}); !errors.Is(err, errSolverDown) {
		t.Fatalf("Preview must report the primary pipeline's error, got %v", err)
	}
}

// TestEngineConcurrentAccess exercises the Engine's documented concurrency
// contract under the race detector: Process, Preview, and every read
// accessor from concurrent goroutines, then NewCycle once all settle.
func TestEngineConcurrentAccess(t *testing.T) {
	e := testEngine(t, withRates(4, 3, 5, 2, 6, 1, 3), withSeed(7))
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
