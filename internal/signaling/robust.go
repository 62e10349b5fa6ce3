package signaling

import (
	"fmt"
	"math"

	"github.com/auditgames/sag/internal/payoff"
)

// This file implements the robust extension the paper's conclusions call
// for ("we assume that the attacker is perfectly rational; such a strong
// assumption may lead to an unexpected loss in practice; thus, a robust
// version of the SAG should be developed for deployment").
//
// The robustness model: a boundedly rational attacker quits after a
// warning only when proceeding is worse than quitting by a strict margin —
// his conditional expected utility must be at most −ε, not merely ≤ 0.
// Equivalently, the persuasion constraint of LP (3) hardens to
//
//	p1·U_ac + q1·U_au ≤ −ε·(p1 + q1),
//
// the right-hand side scaling with the warn-branch mass so ε is a margin on
// the attacker's *conditional* utility. ε = 0 recovers the exact OSSP.

// SolveRobust computes the ε-robust OSSP for one alert of a type with
// payoffs pf and marginal audit probability theta. It requires the Theorem
// 3 payoff condition (as Solve does) and ε ≥ 0.
//
// Closed form (the Theorem 3 geometry shifted by the margin): let
// β_ε = θ·(U_ac+ε) + (1−θ)·(U_au+ε) = β + ε. If β_ε ≤ 0 the whole
// distribution can be warned and the attack is deterred with margin. If
// β_ε > 0 the warn branch is filled until its conditional utility is
// exactly −ε: p1 = θ, q1 chosen with p1·U_ac + q1·U_au = −ε(p1+q1), i.e.
// q1 = θ·(−U_ac−ε)/(U_au+ε), the rest silent with p0 = 0.
func SolveRobust(pf payoff.Payoff, theta, epsilon float64) (Scheme, error) {
	if err := pf.Validate(); err != nil {
		return Scheme{}, err
	}
	if theta < 0 || theta > 1 || math.IsNaN(theta) {
		return Scheme{}, fmt.Errorf("signaling: theta %g out of [0,1]", theta)
	}
	if epsilon < 0 || math.IsNaN(epsilon) || math.IsInf(epsilon, 0) {
		return Scheme{}, fmt.Errorf("signaling: robustness margin %g must be a finite nonnegative number", epsilon)
	}
	if !pf.SatisfiesTheorem3() {
		return Scheme{}, fmt.Errorf("signaling: payoff %+v violates the Theorem 3 condition", pf)
	}
	// Margin-shifted attacker utilities.
	ac := pf.AttackerCovered + epsilon
	au := pf.AttackerUncovered + epsilon
	if ac >= 0 {
		// The margin exceeds the attacker's penalty: no warning can ever
		// persuade with that margin, so signaling degenerates to the plain
		// SSE commitment (everything silent).
		s := Scheme{Q0: 1 - theta, P0: theta}
		s.DefenderUtility = s.P0*pf.DefenderCovered + s.Q0*pf.DefenderUncovered
		s.AttackerUtility = s.P0*pf.AttackerCovered + s.Q0*pf.AttackerUncovered
		if s.AttackerUtility <= 0 {
			s.Deterred = true
			s.DefenderUtility = 0
			s.AttackerUtility = 0
		}
		return s, nil
	}
	betaEps := theta*ac + (1-theta)*au
	tol := 1e-9 * (math.Abs(pf.AttackerCovered) + pf.AttackerUncovered + epsilon)
	if betaEps <= tol {
		// Warn everything; the attacker quits with margin and stays out.
		return Scheme{
			P1: theta, Q1: 1 - theta,
			Deterred: true,
		}, nil
	}
	// Fill the warn branch to its margin capacity.
	q1 := theta * (-ac) / au
	s := Scheme{
		P1: theta,
		Q1: q1,
		P0: 0,
		Q0: 1 - theta - q1,
	}
	if s.Q0 < 0 && s.Q0 > -1e-12 {
		s.Q0 = 0
	}
	if s.Q0 < 0 {
		return Scheme{}, fmt.Errorf("signaling: internal: negative q0 %g (theta=%g eps=%g)", s.Q0, theta, epsilon)
	}
	s.DefenderUtility = s.P0*pf.DefenderCovered + s.Q0*pf.DefenderUncovered
	s.AttackerUtility = s.P0*pf.AttackerCovered + s.Q0*pf.AttackerUncovered
	return s, nil
}

// SolveRobustLP computes the ε-robust OSSP by LP, mirroring SolveLP with
// the hardened persuasion constraint p1·(U_ac+ε) + q1·(U_au+ε) ≤ 0. It is
// the general-payoff path and the cross-check for SolveRobust's closed
// form.
func SolveRobustLP(pf payoff.Payoff, theta, epsilon float64) (Scheme, error) {
	if err := pf.Validate(); err != nil {
		return Scheme{}, err
	}
	if theta < 0 || theta > 1 || math.IsNaN(theta) {
		return Scheme{}, fmt.Errorf("signaling: theta %g out of [0,1]", theta)
	}
	if epsilon < 0 || math.IsNaN(epsilon) || math.IsInf(epsilon, 0) {
		return Scheme{}, fmt.Errorf("signaling: robustness margin %g must be a finite nonnegative number", epsilon)
	}
	shifted := pf
	shifted.AttackerCovered += epsilon
	shifted.AttackerUncovered += epsilon
	if shifted.AttackerCovered >= 0 {
		// Persuasion impossible at this margin; defer to the closed form's
		// degenerate all-silent branch.
		return SolveRobust(pf, theta, epsilon)
	}
	// SolveLP's persuasion row uses the payoff's attacker utilities; feed
	// it the shifted ones but keep the true utilities for the objective
	// and participation by rebuilding the pieces here.
	s, err := solveSignalingLP(pf, shifted, theta)
	if err != nil {
		return Scheme{}, err
	}
	return s, nil
}

// RobustnessPremium returns the auditor utility the margin costs at one
// (θ, ε) point: exact OSSP value minus robust value. It is ≥ 0 (hardening
// a constraint cannot help) and 0 at ε = 0.
func RobustnessPremium(pf payoff.Payoff, theta, epsilon float64) (float64, error) {
	exact, err := Solve(pf, theta)
	if err != nil {
		return 0, err
	}
	robust, err := SolveRobust(pf, theta, epsilon)
	if err != nil {
		return 0, err
	}
	return exact.DefenderUtility - robust.DefenderUtility, nil
}
