package game

import (
	"testing"

	"github.com/auditgames/sag/internal/dist"
	"github.com/auditgames/sag/internal/lp"
	"github.com/auditgames/sag/internal/payoff"
)

// TestSolveStatsAggregation: a solve must report one candidate problem per
// attackable type, and no simplex effort — the closed form runs none.
func TestSolveStatsAggregation(t *testing.T) {
	inst, err := NewInstance(payoff.Table2Slice(), UniformCost(7, 1))
	if err != nil {
		t.Fatal(err)
	}
	futures := make([]dist.Poisson, 7)
	for i := range futures {
		p, err := dist.NewPoisson(10)
		if err != nil {
			t.Fatal(err)
		}
		futures[i] = p
	}
	res, err := SolveOnlineSSE(inst, 20, futures)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.LPSolves != 7 {
		t.Fatalf("LPSolves = %d, want 7 (one candidate per attackable type)", res.Stats.LPSolves)
	}
	if res.Stats.Simplex != (lp.Stats{}) {
		t.Fatalf("closed-form solve reported simplex effort: %+v", res.Stats.Simplex)
	}

	var agg SolveStats
	agg.Accumulate(res.Stats)
	agg.Accumulate(SolveStats{LPSolves: 7, Simplex: lp.Stats{Pivots: 3}})
	if agg.LPSolves != 14 || agg.Simplex.Pivots != 3 {
		t.Fatalf("Accumulate wrong: %+v", agg)
	}
}

// TestSolveStatsVacuous: a vacuous game (no attackable type) solves nothing.
func TestSolveStatsVacuous(t *testing.T) {
	inst, err := NewInstance(payoff.Table2Slice()[:1], UniformCost(1, 1))
	if err != nil {
		t.Fatal(err)
	}
	zero, err := dist.NewPoisson(0)
	if err != nil {
		t.Fatal(err)
	}
	res, err := SolveOnlineSSE(inst, 20, []dist.Poisson{zero})
	if err != nil {
		t.Fatal(err)
	}
	if res.BestType != -1 || res.Stats.LPSolves != 0 {
		t.Fatalf("vacuous game stats %+v", res.Stats)
	}
}
