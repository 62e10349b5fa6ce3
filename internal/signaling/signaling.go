// Package signaling computes the Online Stackelberg Signaling Policy (OSSP)
// of the Signaling Audit Game: the joint distribution over (warn / stay
// silent) × (audit / don't audit) for one triggered alert, given the
// marginal audit probability θ of the alert's type.
//
// The four decision variables follow the paper's LP (3):
//
//	p1 = P(warn,  audit)      q1 = P(warn,  no audit)
//	p0 = P(silent, audit)     q0 = P(silent, no audit)
//
// subject to p1+p0 = θ, q1+q0 = 1−θ, and the persuasion constraint
// p1·U_ac + q1·U_au ≤ 0 that makes quitting the attacker's best response to
// a warning. The objective maximizes the auditor's expected utility
// p0·U_dc + q0·U_du (only the silent branch contributes: a warned attacker
// quits, yielding 0).
//
// Solve is the closed form of that LP for every valid payoff — the paper's
// Theorem 3 scheme when its payoff condition holds, the silent-audit vertex
// when it does not — and is what the engine serves. The two extensions the
// paper's conclusions name are closed forms too: SolveRobust (a margin on
// the persuasion row) and SolveBayesian (a prior over attacker types). The
// simplex is each one's test oracle and nothing else: SolveLP builds LP (3)
// for internal/lp (FuzzClosedFormOSSP's oracle; it stays exported only
// because benchmark/layers.go:193 times it), and the robust LP, the 4^m
// Bayesian pattern LPs, the Theorem 2–4 predicates and the n-signal check
// that two signals suffice live in _test.go files.
package signaling

import (
	"fmt"
	"math"

	"github.com/auditgames/sag/internal/lp"
	"github.com/auditgames/sag/internal/payoff"
)

// Scheme is a joint signaling/audit distribution for one alert.
type Scheme struct {
	P1 float64 // P(warn, audit)
	Q1 float64 // P(warn, no audit)
	P0 float64 // P(silent, audit)
	Q0 float64 // P(silent, no audit)
	// DefenderUtility is the auditor's expected utility for the alert under
	// this scheme, assuming it is the victim alert of a rational attacker:
	// p0·U_dc + q0·U_du (the warned branch contributes zero — the attacker
	// quits).
	DefenderUtility float64
	// AttackerUtility is the rational attacker's expected utility against
	// this scheme: max(0, p0·U_ac + q0·U_au) accounting for the option to
	// quit after a warning (and to not attack at all when the whole game
	// is unprofitable).
	AttackerUtility float64
	// Deterred reports whether the attacker's best response is to not
	// attack this type at all (β ≤ 0 in the paper's Theorem 3 analysis).
	Deterred bool
}

// WarnProbability returns P(ξ1) = p1 + q1, the chance this alert triggers a
// warning dialog.
func (s Scheme) WarnProbability() float64 { return s.P1 + s.Q1 }

// AuditGivenWarn returns P(audit | warn); 0 when the warn branch has zero
// probability.
func (s Scheme) AuditGivenWarn() float64 {
	if w := s.P1 + s.Q1; w > 0 {
		return s.P1 / w
	}
	return 0
}

// AuditGivenSilent returns P(audit | silent); 0 when the silent branch has
// zero probability.
func (s Scheme) AuditGivenSilent() float64 {
	if w := s.P0 + s.Q0; w > 0 {
		return s.P0 / w
	}
	return 0
}

// MarginalAudit returns the unconditional audit probability p1 + p0, which
// equals θ by construction (paper Theorem 1: θ_SAG = θ_SSE).
func (s Scheme) MarginalAudit() float64 { return s.P1 + s.P0 }

// Validate checks that the scheme is a probability distribution consistent
// with marginal audit probability theta.
func (s Scheme) Validate(theta float64) error {
	for _, v := range []float64{s.P1, s.Q1, s.P0, s.Q0} {
		if v < -1e-9 || v > 1+1e-9 || math.IsNaN(v) {
			return fmt.Errorf("signaling: probability out of range in %+v", s)
		}
	}
	if d := math.Abs(s.P1 + s.Q1 + s.P0 + s.Q0 - 1); d > 1e-8 {
		return fmt.Errorf("signaling: probabilities sum to %g, want 1", s.P1+s.Q1+s.P0+s.Q0)
	}
	if d := math.Abs(s.P1 + s.P0 - theta); d > 1e-8 {
		return fmt.Errorf("signaling: marginal audit %g, want θ=%g", s.P1+s.P0, theta)
	}
	return nil
}

// Solve computes the OSSP for one alert of a type with payoffs pf and
// marginal audit probability theta ∈ [0,1]. It is LP (3) solved in closed
// form, total over every payoff Validate accepts.
//
// Substituting p1 = θ−p0 and q1 = 1−θ−q0 turns persuasion into
// p0·U_ac + q0·U_au ≥ β with β = θ·U_ac + (1−θ)·U_au, so together with
// participation the LP has one row, p0·U_ac + q0·U_au ≥ max(β, 0). U_du < 0
// makes it tight, q0 = (max(β,0) + p0·|U_ac|)/U_au, and the objective becomes
// linear in p0 with slope (U_dc·U_au − U_ac·U_du)/U_au:
//
//   - slope ≤ 0 (the paper's Theorem 3 condition, or a tie, which LP (3)'s
//     lexicographic min-p0 rule breaks the same way): p0 = 0, q0 = β/U_au;
//   - slope > 0: p0 as large as q0 ≤ 1−θ allows, which is q0 = 1−θ and
//     p0 = min(θ, (1−θ)·U_au/|U_ac|) — never warn without auditing.
//
// Either way the attacker's silent-branch utility is max(β, 0); within
// 1e-9·(|U_ac|+U_au) of zero he stays out and both utilities are 0 (Deterred).
func Solve(pf payoff.Payoff, theta float64) (Scheme, error) {
	if err := pf.Validate(); err != nil {
		return Scheme{}, err
	}
	if theta < 0 || theta > 1 || math.IsNaN(theta) {
		return Scheme{}, fmt.Errorf("signaling: theta %g out of [0,1]", theta)
	}
	beta := pf.AttackerExpected(theta) // θ·U_ac + (1−θ)·U_au
	// Relative tolerance keeps the two branches consistent when θ sits
	// exactly on the deterrence threshold up to floating-point round-off.
	betaTol := 1e-9 * (math.Abs(pf.AttackerCovered) + pf.AttackerUncovered)
	if pf.DefenderCovered*pf.AttackerUncovered-pf.AttackerCovered*pf.DefenderUncovered > 0 {
		// Auditing a silent alert pays more than warning it away.
		p0 := math.Min(theta, (1-theta)*pf.AttackerUncovered/-pf.AttackerCovered)
		s := Scheme{P1: theta - p0, P0: p0, Q0: 1 - theta, Deterred: beta <= betaTol}
		if !s.Deterred {
			s.DefenderUtility = s.P0*pf.DefenderCovered + s.Q0*pf.DefenderUncovered
			s.AttackerUtility = s.P0*pf.AttackerCovered + s.Q0*pf.AttackerUncovered
		}
		return s, nil
	}
	if beta <= betaTol {
		// Warn with the full distribution; the attacker quits on warning and
		// would not attack at all: both sides get 0.
		return Scheme{
			P1: theta, Q1: 1 - theta,
			DefenderUtility: 0,
			AttackerUtility: 0,
			Deterred:        true,
		}, nil
	}
	// β > 0: warn as often as persuasion allows. p0 = 0, q0 = β/U_au.
	q0 := beta / pf.AttackerUncovered
	s := Scheme{
		P1: theta,
		Q1: 1 - theta - q0,
		P0: 0,
		Q0: q0,
	}
	// Guard round-off: q1 can dip epsilon-negative when θ ≈ deterrence
	// threshold.
	if s.Q1 < 0 && s.Q1 > -1e-12 {
		s.Q1 = 0
	}
	s.DefenderUtility = s.P0*pf.DefenderCovered + s.Q0*pf.DefenderUncovered
	s.AttackerUtility = s.P0*pf.AttackerCovered + s.Q0*pf.AttackerUncovered
	return s, nil
}

// SolveLP computes the OSSP by solving LP (3) directly. It handles payoffs
// outside the Theorem 3 regime. The attacker's participation (attack vs.
// stay out) is resolved after the LP exactly as in the paper's Theorem 2
// argument: if the silent branch gives the attacker a non-positive expected
// utility, the rational attacker stays out and both utilities are 0.
func SolveLP(pf payoff.Payoff, theta float64) (Scheme, error) {
	if err := pf.Validate(); err != nil {
		return Scheme{}, err
	}
	if theta < 0 || theta > 1 || math.IsNaN(theta) {
		return Scheme{}, fmt.Errorf("signaling: theta %g out of [0,1]", theta)
	}
	return solveSignalingLP(pf, pf, theta)
}

// solveSignalingLP is the LP core shared by SolveLP and the robust oracle
// (solveRobustLP in robust_test.go): the persuasion constraint is built from
// persuade's attacker utilities (which the robust oracle shifts by its
// margin) while the objective, participation constraint, and reported
// utilities use the true payoffs pf.
func solveSignalingLP(pf, persuade payoff.Payoff, theta float64) (Scheme, error) {
	// Variables: p1, q1, p0, q0.
	prob := lp.New(lp.Maximize, 4)
	if err := prob.SetObjective([]float64{0, 0, pf.DefenderCovered, pf.DefenderUncovered}); err != nil {
		return Scheme{}, err
	}
	for i := 0; i < 4; i++ {
		if err := prob.SetBounds(i, 0, 1); err != nil {
			return Scheme{}, err
		}
	}
	// Persuasion: p1·U_ac + q1·U_au ≤ 0 (robust callers pass margin-shifted
	// utilities in persuade).
	if err := prob.AddConstraint([]float64{persuade.AttackerCovered, persuade.AttackerUncovered, 0, 0}, lp.LE, 0); err != nil {
		return Scheme{}, err
	}
	// Participation: p0·U_ac + q0·U_au ≥ 0. The paper notes this holds
	// automatically when the attack is profitable overall (β > 0) but it is
	// load-bearing when β ≤ 0: without it the LP would "profit" from
	// auditing an attacker who would never attack (the objective's utility
	// model is only valid against a participating attacker).
	if err := prob.AddConstraint([]float64{0, 0, pf.AttackerCovered, pf.AttackerUncovered}, lp.GE, 0); err != nil {
		return Scheme{}, err
	}
	// Marginals: p1 + p0 = θ, q1 + q0 = 1−θ.
	if err := prob.AddConstraint([]float64{1, 0, 1, 0}, lp.EQ, theta); err != nil {
		return Scheme{}, err
	}
	if err := prob.AddConstraint([]float64{0, 1, 0, 1}, lp.EQ, 1-theta); err != nil {
		return Scheme{}, err
	}
	sol, err := lp.Solve(prob)
	if err != nil {
		return Scheme{}, err
	}
	if sol.Status != lp.Optimal {
		return Scheme{}, fmt.Errorf("signaling: LP(3) status %v (theta=%g)", sol.Status, theta)
	}
	// The LP can have a face of optima (e.g. when the attack is already
	// deterred every scheme with p0·U_dc + q0·U_du = 0 is optimal). The
	// paper's OSSP is the canonical vertex with minimal p0 (Theorem 3), so
	// re-solve lexicographically: minimize p0 subject to optimal value.
	second := lp.New(lp.Minimize, 4)
	if err := second.SetObjective([]float64{0, 0, 1, 0}); err != nil {
		return Scheme{}, err
	}
	for i := 0; i < 4; i++ {
		if err := second.SetBounds(i, 0, 1); err != nil {
			return Scheme{}, err
		}
	}
	if err := second.AddConstraint([]float64{persuade.AttackerCovered, persuade.AttackerUncovered, 0, 0}, lp.LE, 0); err != nil {
		return Scheme{}, err
	}
	if err := second.AddConstraint([]float64{0, 0, pf.AttackerCovered, pf.AttackerUncovered}, lp.GE, 0); err != nil {
		return Scheme{}, err
	}
	if err := second.AddConstraint([]float64{1, 0, 1, 0}, lp.EQ, theta); err != nil {
		return Scheme{}, err
	}
	if err := second.AddConstraint([]float64{0, 1, 0, 1}, lp.EQ, 1-theta); err != nil {
		return Scheme{}, err
	}
	optTol := 1e-10 * (1 + math.Abs(sol.Objective))
	if err := second.AddConstraint([]float64{0, 0, pf.DefenderCovered, pf.DefenderUncovered}, lp.GE, sol.Objective-optTol); err != nil {
		return Scheme{}, err
	}
	if sol2, err := lp.Solve(second); err == nil && sol2.Status == lp.Optimal {
		sol = &lp.Solution{Status: lp.Optimal, X: sol2.X, Objective: prob.ObjectiveAt(sol2.X)}
	}
	s := Scheme{P1: sol.X[0], Q1: sol.X[1], P0: sol.X[2], Q0: sol.X[3]}
	attacker := s.P0*pf.AttackerCovered + s.Q0*pf.AttackerUncovered
	attackerTol := 1e-9 * (math.Abs(pf.AttackerCovered) + pf.AttackerUncovered)
	if attacker <= attackerTol {
		// Rational attacker stays out entirely; both sides get zero.
		s.Deterred = true
		s.DefenderUtility = 0
		s.AttackerUtility = 0
		return s, nil
	}
	s.DefenderUtility = sol.Objective
	s.AttackerUtility = attacker
	return s, nil
}
