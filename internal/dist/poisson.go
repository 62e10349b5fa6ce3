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
}

// NewPoisson returns a Poisson distribution with the given rate. It returns
// an error if lambda is negative or not finite.
func NewPoisson(lambda float64) (Poisson, error) {
	if math.IsNaN(lambda) || math.IsInf(lambda, 0) || lambda < 0 {
		return Poisson{}, fmt.Errorf("dist: invalid Poisson rate %g", lambda)
	}
	return Poisson{Lambda: lambda}, nil
}

// PMF returns P(X = k). Computed in log space to stay finite for large
// lambda and k.
func (p Poisson) PMF(k int) float64 {
	if k < 0 {
		return 0
	}
	if p.Lambda == 0 {
		if k == 0 {
			return 1
		}
		return 0
	}
	lg, _ := math.Lgamma(float64(k) + 1)
	return math.Exp(float64(k)*math.Log(p.Lambda) - p.Lambda - lg)
}

// CDF returns P(X ≤ k) by direct summation with a recurrence; the audit
// game's rates are at most a few hundred, so this is both fast and accurate.
func (p Poisson) CDF(k int) float64 {
	if k < 0 {
		return 0
	}
	if p.Lambda == 0 {
		return 1
	}
	term := math.Exp(-p.Lambda)
	sum := term
	for i := 1; i <= k; i++ {
		term *= p.Lambda / float64(i)
		sum += term
	}
	if sum > 1 {
		return 1
	}
	return sum
}

// Mean returns E[X] = Lambda.
func (p Poisson) Mean() float64 { return p.Lambda }

// Var returns Var[X] = Lambda.
func (p Poisson) Var() float64 { return p.Lambda }

// Quantile returns the smallest k with CDF(k) ≥ q for q in (0,1).
func (p Poisson) Quantile(q float64) int {
	if q <= 0 {
		return 0
	}
	if p.Lambda == 0 {
		return 0
	}
	term := math.Exp(-p.Lambda)
	sum := term
	k := 0
	// Walk the CDF; cap the walk at mean + 12 stddev + 32 for safety.
	limit := int(p.Lambda+12*math.Sqrt(p.Lambda)) + 32
	for sum < q && k < limit {
		k++
		term *= p.Lambda / float64(k)
		sum += term
	}
	return k
}

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
// 1e-12, or outward from the mode when the rate is too large for that.
func (p Poisson) InverseMeanCoefficient() float64 {
	if p.Lambda == 0 {
		return 1
	}
	if p.Lambda > inverseMeanFromZeroMax {
		return inverseMeanFromMode(p.Lambda)
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

// inverseMeanFromMode computes E[1/max(D,1)] for a large rate by summing
// outward from the mode with weights relative to the mode's own (so nothing
// underflows) and normalizing by their total. P(D = 0) < 1e-300 here and is
// dropped.
func inverseMeanFromMode(lambda float64) float64 {
	mode := math.Floor(lambda)
	mass, sum := 1.0, 1/mode
	for d, w := mode+1, 1.0; ; d++ {
		w *= lambda / d
		if w < 1e-18 {
			break
		}
		mass += w
		sum += w / d
	}
	for d, w := mode, 1.0; d > 1; d-- {
		w *= d / lambda
		if w < 1e-18 {
			break
		}
		mass += w
		sum += w / (d - 1)
	}
	return sum / mass
}

// FitPoisson estimates the rate from observed counts by maximum likelihood
// (the sample mean). It returns an error on empty input or negative counts.
func FitPoisson(counts []float64) (Poisson, error) {
	if len(counts) == 0 {
		return Poisson{}, fmt.Errorf("dist: FitPoisson on empty sample")
	}
	sum := 0.0
	for _, c := range counts {
		if c < 0 || math.IsNaN(c) {
			return Poisson{}, fmt.Errorf("dist: FitPoisson: invalid count %g", c)
		}
		sum += c
	}
	return Poisson{Lambda: sum / float64(len(counts))}, nil
}
