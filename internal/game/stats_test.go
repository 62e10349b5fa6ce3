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
	inst := table2Instance(t, 1)
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
}

// TestSolveStatsVacuous: a vacuous game (no attackable type) solves nothing.
func TestSolveStatsVacuous(t *testing.T) {
	inst, err := NewInstance([]payoff.Payoff{payoff.Table2()[1]}, UniformCost(1, 1))
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
