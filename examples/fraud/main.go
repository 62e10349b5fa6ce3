// Fraud: transferring the framework to a different audit domain.
//
// The paper notes the model fits any alert-and-retrospective-audit setting
// (banks, online services). This example defines a three-type financial
// fraud taxonomy with its own payoff matrix and shows the whole decision
// loop on a synthetic business day, including how the equilibrium shifts
// audit attention to the type the attacker prefers.
//
// Run with:
//
//	go run ./examples/fraud
package main

import (
	"fmt"
	"log"
	"math/rand"
	"time"

	sag "github.com/auditgames/sag"
)

// The fraud alert taxonomy. Utilities follow the paper's conventions:
// catching pays a little, missing costs a lot; being caught is ruinous for
// the attacker.
var (
	typeNames = []string{"wire-transfer anomaly", "account takeover", "insider self-dealing"}
	payoffs   = []sag.Payoff{
		{DefenderCovered: 50, DefenderUncovered: -900, AttackerCovered: -4000, AttackerUncovered: 900},
		{DefenderCovered: 80, DefenderUncovered: -1200, AttackerCovered: -5000, AttackerUncovered: 1100},
		{DefenderCovered: 200, DefenderUncovered: -2500, AttackerCovered: -9000, AttackerUncovered: 1500},
	}
	// Investigating an insider case takes three times the analyst hours of
	// a wire anomaly.
	auditCosts = []float64{1, 1.5, 3}
	// Expected daily alert volumes (fraud alerts are much rarer than EMR
	// alerts, and insider cases are rarest).
	dailyVolume = []float64{60, 25, 6}
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	inst, err := sag.NewInstance(payoffs, auditCosts)
	if err != nil {
		return err
	}

	// A simple analytic estimator: alerts arrive uniformly over the
	// business day (09:00–18:00), so the expected future volume decays
	// linearly until close of business.
	businessOpen := 9 * time.Hour
	businessClose := 18 * time.Hour
	estimator := sag.EstimatorFunc(func(at time.Duration) ([]float64, error) {
		frac := 1.0
		switch {
		case at >= businessClose:
			frac = 0
		case at > businessOpen:
			frac = float64(businessClose-at) / float64(businessClose-businessOpen)
		}
		out := make([]float64, len(dailyVolume))
		for i, v := range dailyVolume {
			out[i] = v * frac
		}
		return out, nil
	})

	const budget = 12.0 // analyst-hours available for retrospective review
	engine, err := sag.NewEngine(sag.EngineConfig{
		Instance:  inst,
		Budget:    budget,
		Estimator: estimator,
		Policy:    sag.PolicyOSSP,
		Rand:      rand.New(rand.NewSource(99)),
	})
	if err != nil {
		return err
	}

	// Synthesize the day's alert stream from the volumes.
	rng := rand.New(rand.NewSource(7))
	var stream []sag.Alert
	for typeIdx, v := range dailyVolume {
		n := int(v)
		for i := 0; i < n; i++ {
			at := businessOpen + time.Duration(rng.Float64()*float64(businessClose-businessOpen))
			stream = append(stream, sag.Alert{Type: typeIdx, Time: at})
		}
	}
	sortAlerts(stream)

	fmt.Printf("fraud audit day: %d alerts, %.0f analyst-hours of audit budget\n\n", len(stream), budget)
	warnCount := make([]int, len(typeNames))
	engaged := make([]int, len(typeNames))
	var last *sag.Decision
	for _, a := range stream {
		d, err := engine.Process(a)
		if err != nil {
			return err
		}
		last = d
		if d.Warned {
			warnCount[a.Type]++
		}
		if d.AppliedSAG {
			engaged[a.Type]++
		}
	}

	fmt.Printf("%-24s %8s %8s %10s\n", "alert type", "alerts", "warned", "SAG-hit")
	counts := make([]int, len(typeNames))
	for _, a := range stream {
		counts[a.Type]++
	}
	for i, name := range typeNames {
		fmt.Printf("%-24s %8d %8d %10d\n", name, counts[i], warnCount[i], engaged[i])
	}

	s := engine.Summary()
	fmt.Printf("\nbudget spent: %.2f / %.0f analyst-hours\n", s.BudgetSpent, budget)
	fmt.Printf("mean utility: %.1f with signaling vs %.1f without (gain %+.1f per alert)\n",
		s.MeanOSSPUtility, s.MeanSSEUtility, s.MeanOSSPUtility-s.MeanSSEUtility)

	// Show where the equilibrium put the attacker: the last decision's SSE
	// holds the final coverage vector.
	if last != nil {
		fmt.Printf("\nfinal equilibrium (attacker best response: %s):\n", typeNames[last.SSE.BestType])
		for i, name := range typeNames {
			fmt.Printf("  %-24s coverage %.3f\n", name, last.SSE.Coverage[i])
		}
	}
	return nil
}

// sortAlerts orders the synthetic stream by arrival time (insertion sort:
// the stream is small and this keeps the example dependency-free).
func sortAlerts(xs []sag.Alert) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j].Time < xs[j-1].Time; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}
