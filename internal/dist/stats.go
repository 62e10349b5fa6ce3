package dist

import (
	"math"
	"math/rand"
)

// Normal is a normal distribution used by the synthetic workload generator
// to reproduce the per-type daily volume spread reported in Table 1.
type Normal struct {
	Mu    float64
	Sigma float64
}

// Sample draws one variate.
func (n Normal) Sample(rng *rand.Rand) float64 {
	return n.Mu + n.Sigma*rng.NormFloat64()
}

// SamplePositive draws variates until one is > 0, with a deterministic
// fallback to Mu after 64 rejections (only reachable with Mu ≤ 0, which the
// calibrated workloads never use). The generator needs strictly positive
// daily volumes.
func (n Normal) SamplePositive(rng *rand.Rand) float64 {
	for i := 0; i < 64; i++ {
		if v := n.Sample(rng); v > 0 {
			return v
		}
	}
	return math.Max(n.Mu, 1)
}

// Running accumulates a stream of observations and reports count, mean, and
// (sample) standard deviation using Welford's online algorithm. The zero
// value is ready to use. It is the workhorse behind the Table 1
// reproduction and the experiment reports.
type Running struct {
	n    int
	mean float64
	m2   float64
	min  float64
	max  float64
}

// Add incorporates one observation.
func (r *Running) Add(x float64) {
	r.n++
	if r.n == 1 {
		r.min, r.max = x, x
	} else {
		if x < r.min {
			r.min = x
		}
		if x > r.max {
			r.max = x
		}
	}
	delta := x - r.mean
	r.mean += delta / float64(r.n)
	r.m2 += delta * (x - r.mean)
}

// Mean returns the sample mean (0 for an empty accumulator).
func (r *Running) Mean() float64 { return r.mean }

// Std returns the sample standard deviation (n-1 denominator; 0 when fewer
// than two observations have been added).
func (r *Running) Std() float64 {
	if r.n < 2 {
		return 0
	}
	return math.Sqrt(r.m2 / float64(r.n-1))
}

// Min returns the smallest observation (0 for an empty accumulator).
func (r *Running) Min() float64 { return r.min }

// Max returns the largest observation (0 for an empty accumulator).
func (r *Running) Max() float64 { return r.max }
