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
// payoffs pf and marginal audit probability theta: LP (3) with the hardened
// persuasion row, solved in closed form for every payoff Validate accepts
// and every finite ε ≥ 0.
//
// Substituting p1 = θ−p0 and q1 = 1−θ−q0 leaves two lower bounds on q0, both
// rising in p0 — the margin-shifted persuasion row and the true participation
// row:
//
//	q0 ≥ (β+ε + p0·|U_ac+ε|)/(U_au+ε)    q0 ≥ p0·|U_ac|/U_au
//
// with β = θ·U_ac + (1−θ)·U_au. U_du < 0 keeps q0 on the upper of the two, so
// the objective p0·U_dc + q0·U_du is concave and piecewise linear in p0 on
// [0, min(θ, (1−θ)·U_au/|U_ac|)], the stretch where both bounds fit under
// 1−θ. The participation arm is the steeper one (equally steep at ε = 0),
// and the persuasion arm lies above it only when β+ε > 0 and only up to
// their crossing, so the walk from p0 = 0 climbs while the arm it is on
// costs less than U_dc per unit of p0, and stops on a tie — the smallest
// optimal p0, as LP (3)'s second solve picks. Theorem 3's condition makes
// the participation arm too steep to climb, not the persuasion arm: at ε > 0
// the optimum can sit at the crossing, where the attacker is indifferent and
// stays out, instead of at p0 = 0.
//
// A margin that reaches the attacker's penalty (U_ac+ε ≥ 0) leaves no warning
// that persuades and the scheme is the silent SSE commitment. Either way an
// attacker utility within 1e-9·(|U_ac|+U_au) of zero means he stays out and
// both utilities are 0 (Deterred).
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
	ac, au := -pf.AttackerCovered, pf.AttackerUncovered
	dc, du := pf.DefenderCovered, -pf.DefenderUncovered
	acE, auE := ac-epsilon, au+epsilon // |U_ac+ε| while a penalty is left, U_au+ε
	p0, q0 := theta, 1-theta
	if acE > 0 {
		betaE := (1-theta)*auE - theta*acE
		pmax := math.Min(theta, (1-theta)*au/ac)
		switch {
		case dc*au > du*ac:
			p0 = pmax
		case betaE > 0 && dc*auE > du*acE:
			p0 = math.Min(pmax, betaE/auE/(ac/au-acE/auE))
		default:
			p0 = 0
		}
		q0 = math.Min(1-theta, math.Max((betaE+p0*acE)/auE, p0*ac/au))
	}
	s := Scheme{P1: theta - p0, Q1: 1 - theta - q0, P0: p0, Q0: q0}
	if attacker := q0*au - p0*ac; attacker > 1e-9*(ac+au) {
		s.DefenderUtility = p0*dc - q0*du
		s.AttackerUtility = attacker
	} else {
		s.Deterred = true
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
