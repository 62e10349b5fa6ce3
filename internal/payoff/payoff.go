// Package payoff defines the per-alert-type utility structures of the
// Signaling Audit Game and the paper's Table 2 instantiation.
//
// For every alert type t the game assigns four utilities around the "victim
// alert" (the alert an actual attack triggers):
//
//	U_{d,c} — auditor ("defender") utility when the victim alert is audited (covered)
//	U_{d,u} — auditor utility when it is not audited (uncovered)
//	U_{a,c} — attacker utility when audited
//	U_{a,u} — attacker utility when not audited
//
// The paper's sign conventions (§2.2) are U_{a,c} < 0 < U_{a,u} and
// U_{d,c} ≥ 0 > U_{d,u}: being caught hurts the attacker, missing an attack
// hurts the auditor. Theorem 3 additionally relies on
// U_{a,c}·U_{d,u} − U_{d,c}·U_{a,u} > 0, equivalently
// −U_{a,c}/U_{a,u} > −U_{d,c}/U_{d,u}: the attacker's penalty-to-gain ratio
// exceeds the auditor's catch-benefit-to-miss-loss ratio, which the paper's
// remark argues is the natural regime in audit domains.
package payoff

import (
	"fmt"
	"math"
)

// Payoff holds the four utilities of one alert type.
type Payoff struct {
	DefenderCovered   float64 // U_{d,c} ≥ 0
	DefenderUncovered float64 // U_{d,u} < 0
	AttackerCovered   float64 // U_{a,c} < 0
	AttackerUncovered float64 // U_{a,u} > 0
}

// Validate checks the paper's sign conventions. It returns a descriptive
// error naming the violated inequality.
func (p Payoff) Validate() error {
	for _, v := range []float64{p.DefenderCovered, p.DefenderUncovered, p.AttackerCovered, p.AttackerUncovered} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("payoff: non-finite utility in %+v", p)
		}
	}
	if !(p.AttackerCovered < 0) {
		return fmt.Errorf("payoff: need U_ac < 0, got %g", p.AttackerCovered)
	}
	if !(p.AttackerUncovered > 0) {
		return fmt.Errorf("payoff: need U_au > 0, got %g", p.AttackerUncovered)
	}
	if !(p.DefenderCovered >= 0) {
		return fmt.Errorf("payoff: need U_dc >= 0, got %g", p.DefenderCovered)
	}
	if !(p.DefenderUncovered < 0) {
		return fmt.Errorf("payoff: need U_du < 0, got %g", p.DefenderUncovered)
	}
	return nil
}

// SatisfiesTheorem3 reports whether U_{a,c}·U_{d,u} − U_{d,c}·U_{a,u} > 0,
// the condition under which the paper's Theorem 3 guarantees that the
// optimal signaling scheme never audits unwarned alerts (p0 = 0).
func (p Payoff) SatisfiesTheorem3() bool {
	return p.AttackerCovered*p.DefenderUncovered-p.DefenderCovered*p.AttackerUncovered > 0
}

// AttackerExpected returns the attacker's expected utility for an alert of
// this type covered with probability theta.
func (p Payoff) AttackerExpected(theta float64) float64 {
	return theta*p.AttackerCovered + (1-theta)*p.AttackerUncovered
}

// DefenderExpected returns the auditor's expected utility for a victim
// alert of this type covered with probability theta.
func (p Payoff) DefenderExpected(theta float64) float64 {
	return theta*p.DefenderCovered + (1-theta)*p.DefenderUncovered
}

// DeterrenceThreshold returns the smallest coverage probability θ* at which
// the attacker's expected utility is non-positive, i.e. the attack is fully
// deterred: θ* = U_{a,u} / (U_{a,u} − U_{a,c}). The value is in (0,1) for
// any payoff satisfying the sign conventions.
func (p Payoff) DeterrenceThreshold() float64 {
	return p.AttackerUncovered / (p.AttackerUncovered - p.AttackerCovered)
}

// Table2 returns the paper's Table 2 payoff structures for the seven
// predefined alert types, indexed by type ID 1..7 (index 0 is unused and
// zero-valued so callers can write Table2()[typeID]).
func Table2() [8]Payoff {
	return [8]Payoff{
		1: {DefenderCovered: 100, DefenderUncovered: -400, AttackerCovered: -2000, AttackerUncovered: 400},
		2: {DefenderCovered: 150, DefenderUncovered: -500, AttackerCovered: -2250, AttackerUncovered: 400},
		3: {DefenderCovered: 150, DefenderUncovered: -600, AttackerCovered: -2500, AttackerUncovered: 450},
		4: {DefenderCovered: 300, DefenderUncovered: -800, AttackerCovered: -2500, AttackerUncovered: 600},
		5: {DefenderCovered: 400, DefenderUncovered: -1000, AttackerCovered: -3000, AttackerUncovered: 650},
		6: {DefenderCovered: 600, DefenderUncovered: -1500, AttackerCovered: -5000, AttackerUncovered: 700},
		7: {DefenderCovered: 700, DefenderUncovered: -2000, AttackerCovered: -6000, AttackerUncovered: 800},
	}
}
