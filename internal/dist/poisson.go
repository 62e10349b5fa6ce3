// Package dist provides the probability primitives the audit game needs:
// Poisson distributions (future-alert counts are modeled as Poisson in the
// paper, §3.1), the truncated harmonic expectation that linearizes LP (2),
// normal deviates for calibrating daily alert volumes, and small streaming
// statistics helpers used to reproduce Table 1.
//
// Everything is implemented on top of math and math/rand from the standard
// library; no external numerics packages are used.
package dist

import (
	"fmt"
	"math"
	"math/rand"
)

// Poisson is a Poisson distribution with rate Lambda ≥ 0. The zero value is
// the degenerate distribution at 0 (Lambda == 0), which the audit engine
// uses for alert types with no expected future arrivals.
type Poisson struct {
	Lambda float64
	// kappa is InverseMeanCoefficient's value, summed once by NewPoisson;
	// 0 (never a coefficient) in a literal, which sums on demand.
	kappa float64
}

// NewPoisson returns a Poisson distribution with the given rate and its
// InverseMeanCoefficient already summed. It returns an error if lambda is
// negative or not finite.
func NewPoisson(lambda float64) (Poisson, error) {
	if err := ValidateRate(lambda); err != nil {
		return Poisson{}, err
	}
	p := Poisson{Lambda: lambda}
	p.kappa = p.inverseMean()
	return p, nil
}

// ValidateRate reports whether lambda is usable as a Poisson rate — the
// check NewPoisson makes, for a caller handed a Poisson it did not build.
func ValidateRate(lambda float64) error {
	if math.IsNaN(lambda) || math.IsInf(lambda, 0) || lambda < 0 {
		return fmt.Errorf("dist: invalid Poisson rate %g", lambda)
	}
	return nil
}

// Mean returns E[X] = Lambda.
func (p Poisson) Mean() float64 { return p.Lambda }

// Sample draws one variate using rng. For small rates it uses Knuth's
// product method; for large rates it uses the normal approximation with a
// continuity correction, which is accurate to well under the calibration
// noise of the synthetic workload at the rates the generator uses (≥ 30).
func (p Poisson) Sample(rng *rand.Rand) int {
	if p.Lambda == 0 {
		return 0
	}
	if p.Lambda < 30 {
		l := math.Exp(-p.Lambda)
		k := 0
		prod := 1.0
		for {
			prod *= rng.Float64()
			if prod <= l {
				return k
			}
			k++
		}
	}
	for {
		x := p.Lambda + math.Sqrt(p.Lambda)*rng.NormFloat64()
		if x >= -0.5 {
			return int(math.Round(x))
		}
	}
}

// InverseMeanCoefficient returns E[1/max(D,1)] where D ~ Poisson(Lambda).
//
// This is the coefficient that linearizes the paper's LP (2): the marginal
// coverage of a type with allocated budget B, audit cost V and future count
// D is θ = E[B/(V·D)] ≈ (B/V)·E[1/max(D,1)]. The D = 0 term is kept at
// weight 1 — with no future alerts a unit of budget fully covers a single
// hypothetical alert — which also makes the coefficient continuous as
// Lambda → 0. The series is summed from d = 0 until the Poisson tail is below
// 1e-12; a rate too large for that takes the inverse-moment expansion
// E[1/D] = (1/λ)·Σ_k k!/λ^k, whose eighth term is already below 1e-16 there.
// A Poisson from NewPoisson returns the sum it stored; a literal sums here,
// with the same series, so both carry the same bits.
func (p Poisson) InverseMeanCoefficient() float64 {
	if p.kappa != 0 {
		return p.kappa
	}
	return p.inverseMean()
}

func (p Poisson) inverseMean() float64 {
	if p.Lambda == 0 {
		return 1
	}
	if p.Lambda > inverseMeanFromZeroMax {
		x := 1 / p.Lambda // k = 0…6 in Horner form; P(D = 0) < 1e-300 is dropped
		return x * (1 + x*(1+2*x*(1+3*x*(1+4*x*(1+5*x*(1+6*x))))))
	}
	term := math.Exp(-p.Lambda) // P(D = 0)
	sum := term                 // d = 0 contributes weight 1
	cum := term
	d := 0
	limit := int(p.Lambda+12*math.Sqrt(p.Lambda)) + 64
	for d < limit && 1-cum > 1e-12 {
		d++
		term *= p.Lambda / float64(d)
		cum += term
		sum += term / float64(d)
	}
	// Remaining tail mass contributes ≈ tail/d; bounded by 1e-12, ignore.
	return sum
}

// inverseMeanFromZeroMax is the largest rate InverseMeanCoefficient sums up
// from d = 0. The leading term e^−λ goes subnormal past λ ≈ 708 and is zero
// from λ ≈ 745, where that series would return 0 instead of ≈ 1/λ.
const inverseMeanFromZeroMax = 700
