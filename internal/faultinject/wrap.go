package faultinject

import (
	"context"
	"time"

	"github.com/auditgames/sag/internal/core"
	"github.com/auditgames/sag/internal/dist"
	"github.com/auditgames/sag/internal/game"
)

// Estimator wraps est so every FutureRates call first passes through p:
// injected latency delays the call, injected panics propagate (the engine's
// fallback layer contains them), and injected errors preempt the underlying
// estimator. A nil p returns est unchanged.
func Estimator(p *Point, est core.Estimator) core.Estimator {
	if p == nil {
		return est
	}
	return core.EstimatorFunc(func(at time.Duration) ([]float64, error) {
		if err := p.fire(nil); err != nil {
			return nil, err
		}
		return est.FutureRates(at)
	})
}

// SSESolve wraps the engine's online SSE solver with p (nil solve means the
// default game.SolveOnlineSSECtx). Injected latency sleeps under the
// decision's context, so it ends early when the caller gives up; the engine
// then abandons the decision rather than degrading it. A nil p returns the
// solver unchanged.
func SSESolve(p *Point, solve core.SSESolveFunc) core.SSESolveFunc {
	if solve == nil {
		solve = game.SolveOnlineSSECtx
	}
	if p == nil {
		return solve
	}
	return func(ctx context.Context, inst *game.Instance, budget float64, futures []dist.Poisson) (*game.Result, error) {
		if err := p.fire(ctx.Done()); err != nil {
			return nil, err
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		return solve(ctx, inst, budget, futures)
	}
}
