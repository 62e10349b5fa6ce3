package signaling

import (
	"fmt"
	"math"
)

// This file implements the Bayesian extension the paper sketches in its
// conclusions ("in practice, there may exist many types of attacker; thus,
// SAG can be generalized into a Bayesian setting"): the auditor faces an
// attacker whose payoff structure is private, drawn from a known prior over
// finitely many types. The auditor still commits to one joint
// signaling/audit scheme per alert; each attacker type best-responds to it
// separately (quit or proceed after a warning; attack or stay out
// overall).
//
// The scheme is a point (p1, q1) of the box [0,θ]×[0,1−θ]; p0 and q0 are the
// remainders. Type k's warn-branch utility p1·c_k + q1·u_k and silent-branch
// utility (θ−p1)·c_k + (1−θ−q1)·u_k each change sign across one line of that
// plane (a type that proceeds through warnings earns β_k = θ·c_k + (1−θ)·u_k
// whatever the scheme). The 2m lines and the four box edges cut the box into
// cells; inside a cell every type's set of allowed responses is fixed and the
// auditor's utility is linear, and because a tie lets the auditor pick the
// response — every sign condition is closed — the best pattern's region is a
// closed polygon of cells and its optimum a vertex. So the optimum over all
// 4^m response patterns is the best of the O(m²) pairwise intersections,
// each scored type by type.

// AttackerType is one attacker type in the Bayesian SAG: its prior
// probability and its private utilities for attacking a covered/uncovered
// alert.
type AttackerType struct {
	Prior float64
	// Covered is the attacker's utility when his victim alert is audited
	// (must be < 0).
	Covered float64
	// Uncovered is his utility when it is not audited (must be > 0).
	Uncovered float64
}

// DefenderSide is the auditor's side of the payoff matrix (hers is public
// and type-independent).
type DefenderSide struct {
	// Covered is the auditor's utility for auditing the victim alert
	// (≥ 0); Uncovered for missing it (< 0).
	Covered   float64
	Uncovered float64
}

// BayesianScheme is the optimal joint scheme against a type-uncertain
// attacker, with each type's induced behavior.
type BayesianScheme struct {
	P1, Q1, P0, Q0 float64
	// DefenderUtility is the prior-weighted expected auditor utility.
	DefenderUtility float64
	// QuitsAfterWarn[k] reports whether type k quits on seeing a warning.
	QuitsAfterWarn []bool
	// Participates[k] reports whether type k attacks at all.
	Participates []bool
	// TypeUtilities[k] is type k's expected utility under the scheme
	// (0 when it stays out).
	TypeUtilities []float64
}

// SolveBayesian computes the optimal Bayesian OSSP for one alert with
// marginal audit probability theta, defender payoffs def, and attacker
// type distribution types. Priors must be positive and sum to 1 (within
// 1e-9).
func SolveBayesian(def DefenderSide, types []AttackerType, theta float64) (BayesianScheme, error) {
	if len(types) == 0 {
		return BayesianScheme{}, fmt.Errorf("signaling: no attacker types")
	}
	if theta < 0 || theta > 1 || math.IsNaN(theta) {
		return BayesianScheme{}, fmt.Errorf("signaling: theta %g out of [0,1]", theta)
	}
	if !(def.Covered >= 0) || !(def.Uncovered < 0) {
		return BayesianScheme{}, fmt.Errorf("signaling: defender payoffs %+v violate U_dc >= 0 > U_du", def)
	}
	sum := 0.0
	for k, t := range types {
		if !(t.Prior > 0) {
			return BayesianScheme{}, fmt.Errorf("signaling: type %d prior %g must be positive", k, t.Prior)
		}
		if !(t.Covered < 0) || !(t.Uncovered > 0) {
			return BayesianScheme{}, fmt.Errorf("signaling: type %d payoffs %+v violate U_ac < 0 < U_au", k, t)
		}
		sum += t.Prior
	}
	if math.Abs(sum-1) > 1e-9 {
		return BayesianScheme{}, fmt.Errorf("signaling: priors sum to %g, want 1", sum)
	}

	// Lines a·p1 + b·q1 = r: the box edges, then each type's two
	// indifference lines.
	type line struct{ a, b, r float64 }
	lines := []line{{1, 0, 0}, {1, 0, theta}, {0, 1, 0}, {0, 1, 1 - theta}}
	for _, t := range types {
		lines = append(lines,
			line{t.Covered, t.Uncovered, 0},
			line{t.Covered, t.Uncovered, theta*t.Covered + (1-theta)*t.Uncovered})
	}
	const edge = 1e-12 // how far outside the box round-off may put a vertex on its edge
	bestP1, bestQ1, best := 0.0, 0.0, math.Inf(-1)
	for i, l := range lines {
		for _, n := range lines[i+1:] {
			det := l.a*n.b - n.a*l.b
			if det == 0 {
				continue
			}
			p1 := (l.r*n.b - n.r*l.b) / det
			q1 := (l.a*n.r - n.a*l.r) / det
			if !(p1 >= -edge && p1 <= theta+edge && q1 >= -edge && q1 <= 1-theta+edge) {
				continue
			}
			p1 = math.Max(0, math.Min(theta, p1))
			q1 = math.Max(0, math.Min(1-theta, q1))
			total := 0.0
			for _, t := range types {
				_, _, v := t.respond(def, theta, p1, q1)
				total += v
			}
			if total > best+1e-12 {
				bestP1, bestQ1, best = p1, q1, total
			}
		}
	}

	m := len(types)
	s := BayesianScheme{
		P1: bestP1, Q1: bestQ1, P0: theta - bestP1, Q0: 1 - theta - bestQ1,
		DefenderUtility: best,
		QuitsAfterWarn:  make([]bool, m),
		Participates:    make([]bool, m),
		TypeUtilities:   make([]float64, m),
	}
	for k, t := range types {
		s.QuitsAfterWarn[k], s.Participates[k], _ = t.respond(def, theta, bestP1, bestQ1)
		if s.Participates[k] {
			s.TypeUtilities[k] = s.P0*t.Covered + s.Q0*t.Uncovered
			if !s.QuitsAfterWarn[k] {
				s.TypeUtilities[k] += s.P1*t.Covered + s.Q1*t.Uncovered
			}
		}
	}
	return s, nil
}

// respond picks, among the responses type t's own incentives allow at the
// scheme (p1, q1), the one the auditor likes best, and returns it with its
// prior-weighted contribution to her utility. A utility within
// 1e-9·(|U_ac|+U_au) of zero is a tie (the package's stay-out tolerance) and
// allows both responses; ties in her utility go to proceeding and to staying
// out, the order the 4^m enumeration visited patterns in.
func (t AttackerType) respond(def DefenderSide, theta, p1, q1 float64) (quits, participates bool, value float64) {
	tol := 1e-9 * (t.Uncovered - t.Covered)
	warn := p1*t.Covered + q1*t.Uncovered
	beta := theta*t.Covered + (1-theta)*t.Uncovered
	silent := beta - warn
	mayQuit, mayProceed := warn <= tol, warn >= -tol
	// A type that attacks exposes the auditor to the silent branch, and to
	// the warn branch too when he proceeds through it.
	throughBoth := t.Prior * (theta*def.Covered + (1-theta)*def.Uncovered)
	throughSilent := t.Prior * ((theta-p1)*def.Covered + (1-theta-q1)*def.Uncovered)
	value = math.Inf(-1)
	for _, o := range [4]struct {
		quits, participates, allowed bool
		value                        float64
	}{
		{false, false, mayProceed && beta <= tol, 0},
		{true, false, mayQuit && silent <= tol, 0},
		{false, true, mayProceed && beta >= -tol, throughBoth},
		{true, true, mayQuit && silent >= -tol, throughSilent},
	} {
		if o.allowed && o.value > value {
			quits, participates, value = o.quits, o.participates, o.value
		}
	}
	return quits, participates, value
}
