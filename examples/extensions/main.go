// Extensions: the paper's three future-work directions, working.
//
// The paper's conclusions name three generalizations: a Bayesian SAG for
// uncertain attacker types, a multi-attacker SAG, and a robust SAG for
// boundedly rational attackers. The library solves the Bayesian and robust
// games in closed form; the multi-attacker game, which nothing serves, is
// solved here (multi.go, on the library's simplex). This example exercises
// each on the paper's own payoff numbers.
//
// Run with:
//
//	go run ./examples/extensions
package main

import (
	"fmt"
	"log"

	sag "github.com/auditgames/sag"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	if err := bayesian(); err != nil {
		return err
	}
	if err := robust(); err != nil {
		return err
	}
	return multiAttacker()
}

// bayesian: the auditor does not know whether she faces a cautious insider
// (huge penalty if caught) or a reckless one (little to lose). One scheme
// must serve both.
func bayesian() error {
	fmt.Println("== Bayesian SAG: uncertain attacker type ==")
	def := sag.DefenderSide{Covered: 100, Uncovered: -400}
	types := []sag.AttackerType{
		{Prior: 0.8, Covered: -2000, Uncovered: 400}, // cautious (paper's type 1)
		{Prior: 0.2, Covered: -300, Uncovered: 900},  // reckless
	}
	const theta = 0.10
	s, err := sag.SolveBayesianOSSP(def, types, theta)
	if err != nil {
		return err
	}
	fmt.Printf("scheme: p1=%.3f q1=%.3f p0=%.3f q0=%.3f\n", s.P1, s.Q1, s.P0, s.Q0)
	names := []string{"cautious", "reckless"}
	for k := range types {
		fmt.Printf("  %-9s quits on warning: %-5v attacks at all: %-5v utility: %.1f\n",
			names[k], s.QuitsAfterWarn[k], s.Participates[k], s.TypeUtilities[k])
	}
	fmt.Printf("auditor expected utility: %.1f\n\n", s.DefenderUtility)
	return nil
}

// robust: the warning must out-argue not just a perfectly rational
// attacker but one who needs a margin ε before he bothers to quit.
func robust() error {
	fmt.Println("== Robust SAG: boundedly rational attacker ==")
	pf := sag.Table2Payoffs()[1]
	const theta = 0.10
	fmt.Printf("%8s %12s %12s %12s\n", "margin", "exact", "robust", "premium")
	for _, eps := range []float64{0, 50, 150, 300} {
		exact, err := sag.SolveOSSP(pf, theta)
		if err != nil {
			return err
		}
		rob, err := sag.SolveRobustOSSP(pf, theta, eps)
		if err != nil {
			return err
		}
		prem, err := sag.RobustnessPremium(pf, theta, eps)
		if err != nil {
			return err
		}
		fmt.Printf("%8.0f %12.1f %12.1f %12.1f\n", eps, exact.DefenderUtility, rob.DefenderUtility, prem)
	}
	fmt.Println("(the premium is what insurance against irrational proceed-clicks costs)")
	fmt.Println()
	return nil
}

// multiAttacker: two insiders with different capabilities hit the same
// audit budget; the equilibrium splits coverage between their menus.
func multiAttacker() error {
	fmt.Println("== Multi-attacker SAG: capability-restricted insiders ==")
	pays := sag.Table2Payoffs()
	inst, err := sag.NewInstance(
		[]sag.Payoff{pays[1], pays[3], pays[7]},
		sag.UniformCost(3, 1),
	)
	if err != nil {
		return err
	}
	futures := []sag.Poisson{{Lambda: 196.57}, {Lambda: 140.46}, {Lambda: 43.27}}
	names := []string{"Same Last Name", "Neighbor", "LN+Addr+Neighbor"}

	res, err := SolveMultiAttackerSSE(inst, 30, futures, [][]int{
		{0, 1}, // clerk: can only trigger name/neighbor alerts
		{1, 2}, // registrar: address-capable
	})
	if err != nil {
		return err
	}
	fmt.Printf("coverage: ")
	for i, c := range res.Coverage {
		fmt.Printf("%s %.3f  ", names[i], c)
	}
	fmt.Println()
	for i, bt := range res.BestTypes {
		fmt.Printf("attacker %d best response: %s (utility %.1f)\n", i, names[bt], res.AttackerUtilities[i])
	}
	fmt.Printf("auditor total expected utility: %.1f\n", res.DefenderUtility)
	return nil
}
