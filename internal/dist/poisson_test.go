package dist

import (
	"math"
	"math/rand"
	"testing"
	"time"
)

func TestPoissonZeroRate(t *testing.T) {
	p := Poisson{}
	if p.InverseMeanCoefficient() != 1 {
		t.Error("zero-rate inverse-mean coefficient should be 1")
	}
	rng := rand.New(rand.NewSource(1))
	if p.Sample(rng) != 0 {
		t.Error("zero-rate sample should be 0")
	}
}

func TestNewPoissonValidation(t *testing.T) {
	if _, err := NewPoisson(-1); err == nil {
		t.Error("negative rate should be rejected")
	}
	if _, err := NewPoisson(math.NaN()); err == nil {
		t.Error("NaN rate should be rejected")
	}
	if _, err := NewPoisson(math.Inf(1)); err == nil {
		t.Error("infinite rate should be rejected")
	}
	if p, err := NewPoisson(3.5); err != nil || p.Lambda != 3.5 {
		t.Errorf("NewPoisson(3.5) = %v, %v", p, err)
	}
}

// storedCoefficientEdges are rates around each branch of the series: zero,
// subnormal-adjacent, both sides of the from-zero limit, past the underflow
// of e^−λ, and where d++ on a float64 is lost.
var storedCoefficientEdges = []float64{0, 1e-300, 700, 700.5, 746, 2000, 1e5, 1 << 53}

// checkStoredCoefficient: the κ NewPoisson stores is the bits a literal
// sums on demand — the engine keeps the one and the test oracles use the
// other.
func checkStoredCoefficient(t *testing.T, lambda float64) {
	t.Helper()
	p, err := NewPoisson(lambda)
	if err != nil {
		t.Fatalf("NewPoisson(%g): %v", lambda, err)
	}
	if p.kappa == 0 {
		t.Fatalf("NewPoisson(%g) stored no coefficient", lambda)
	}
	if got, want := p.InverseMeanCoefficient(), (Poisson{Lambda: lambda}).InverseMeanCoefficient(); math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("lambda=%g: stored coefficient %v, literal sums %v", lambda, got, want)
	}
}

func TestNewPoissonStoresTheLiteralsCoefficient(t *testing.T) {
	for k := 0; k <= 10000; k++ {
		checkStoredCoefficient(t, float64(k)/41)
	}
	for _, lambda := range storedCoefficientEdges {
		checkStoredCoefficient(t, lambda)
	}
}

func FuzzNewPoissonCoefficient(f *testing.F) {
	for _, lambda := range storedCoefficientEdges {
		f.Add(lambda)
	}
	f.Fuzz(func(t *testing.T, lambda float64) {
		if ValidateRate(lambda) != nil {
			if _, err := NewPoisson(lambda); err == nil {
				t.Fatalf("NewPoisson(%g) accepted a rate ValidateRate refuses", lambda)
			}
			return
		}
		checkStoredCoefficient(t, lambda)
	})
}

func TestPoissonSampleMoments(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, lambda := range []float64{0.5, 3, 29, 45, 196.57} {
		p := Poisson{Lambda: lambda}
		var r Running
		n := 20000
		for i := 0; i < n; i++ {
			r.Add(float64(p.Sample(rng)))
		}
		se := math.Sqrt(lambda / float64(n))
		if math.Abs(r.Mean()-lambda) > 6*se+0.05 {
			t.Errorf("lambda=%g: sample mean %g too far", lambda, r.Mean())
		}
		// Variance should be close to lambda too (loose 10% band).
		v := r.Std() * r.Std()
		if math.Abs(v-lambda) > 0.12*lambda+0.2 {
			t.Errorf("lambda=%g: sample variance %g too far", lambda, v)
		}
	}
}

func TestInverseMeanCoefficientSmallRates(t *testing.T) {
	// For lambda→0 the coefficient → 1; it must be strictly decreasing in
	// lambda and ≈ 1/lambda for large lambda.
	prev := 1.0
	for _, lambda := range []float64{0.001, 0.1, 0.5, 1, 2, 5, 10, 50, 200} {
		c := Poisson{Lambda: lambda}.InverseMeanCoefficient()
		if c <= 0 || c > 1 {
			t.Fatalf("coefficient out of (0,1]: %g at lambda=%g", c, lambda)
		}
		if c >= prev+1e-12 {
			t.Fatalf("coefficient not decreasing at lambda=%g", lambda)
		}
		prev = c
	}
	// Large-lambda asymptotic: E[1/max(D,1)] ≈ 1/(lambda-1) for large lambda.
	c := Poisson{Lambda: 200}.InverseMeanCoefficient()
	if math.Abs(c-1.0/199.0) > 2e-4 {
		t.Errorf("large-lambda coefficient %g, want ≈ %g", c, 1.0/199.0)
	}
}

// poissonPMF is P(D = k) in log space: the brute-force sums' only ingredient.
func poissonPMF(lambda float64, k int) float64 {
	lg, _ := math.Lgamma(float64(k) + 1)
	return math.Exp(float64(k)*math.Log(lambda) - lambda - lg)
}

func TestInverseMeanCoefficientMatchesBruteForce(t *testing.T) {
	for _, lambda := range []float64{0.3, 1.7, 4, 11, 43.27} {
		brute := poissonPMF(lambda, 0)
		limit := int(lambda + 20*math.Sqrt(lambda+1) + 30)
		for d := 1; d <= limit; d++ {
			brute += poissonPMF(lambda, d) / float64(d)
		}
		if got := (Poisson{Lambda: lambda}).InverseMeanCoefficient(); math.Abs(got-brute) > 1e-9 {
			t.Errorf("lambda=%g: coefficient %g, brute force %g", lambda, got, brute)
		}
	}
}

// bruteInverseMeanFromMode is E[1/max(D,1)] summed outward from the mode
// with weights relative to the mode's own (so nothing underflows), normalized
// by their total: ~17·√λ terms, and it never ends from λ = 2^53, where d++ is
// lost. It was the large-rate path until the expansion replaced it.
func bruteInverseMeanFromMode(lambda float64) float64 {
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

// TestInverseMeanCoefficientLargeRates: e^−λ underflows from λ ≈ 745, where
// the from-zero series used to return 0. The coefficient must follow
// E[1/D] = 1/λ·(1 + 1/λ + 2/λ² + 6/λ³ + …) on both sides of the switch to the
// expansion, agree with the brute-force sum on both, and be continuous
// across it.
func TestInverseMeanCoefficientLargeRates(t *testing.T) {
	for _, lambda := range []float64{700, 700.5, 746, 2000, 1e5} {
		got := Poisson{Lambda: lambda}.InverseMeanCoefficient()
		lo := (1 + 1/lambda + 2/(lambda*lambda)) / lambda
		hi := (1 + 1/lambda + 3/(lambda*lambda)) / lambda
		if !(got > lo && got < hi) {
			t.Errorf("lambda=%g: coefficient %g outside (%g, %g)", lambda, got, lo, hi)
		}
	}
	if got := (Poisson{Lambda: 2000}).InverseMeanCoefficient(); math.Abs(got*2000-1) > 0.01 {
		t.Errorf("lambda=2000: coefficient %g not within 1%% of 1/2000", got)
	}
	// Far below what the LP can see: the from-zero sum up to the switch, the
	// expansion from just past it.
	above := math.Nextafter(inverseMeanFromZeroMax, math.Inf(1))
	for _, lambda := range []float64{50, 300, inverseMeanFromZeroMax, above, 700.1, 746, 1e4, 1e6} {
		got, brute := Poisson{Lambda: lambda}.InverseMeanCoefficient(), bruteInverseMeanFromMode(lambda)
		if math.Abs(got-brute) > 1e-10*brute {
			t.Errorf("lambda=%g: coefficient %g, brute force from the mode %g", lambda, got, brute)
		}
	}
	lo, hi := Poisson{Lambda: inverseMeanFromZeroMax}.InverseMeanCoefficient(), Poisson{Lambda: above}.InverseMeanCoefficient()
	if math.Abs(lo-hi) > 1e-10*lo {
		t.Errorf("jump across the switch: %g → %g", lo, hi)
	}
}

// TestInverseMeanCoefficientHugeRates: the from-the-mode sum walked d++ on a
// float64 and never returned from λ = 2^53 (and took 0.2 s at 1e13, under the
// tenant's budget lock). NewPoisson admits every finite rate, so every finite
// rate must answer at once.
func TestInverseMeanCoefficientHugeRates(t *testing.T) {
	for _, lambda := range []float64{1e9, 1e16, 1e300, math.MaxFloat64} {
		var got float64
		took := time.Hour
		for try := 0; try < 3; try++ { // the fastest of three: a descheduled test is not a slow sum
			start := time.Now()
			got = Poisson{Lambda: lambda}.InverseMeanCoefficient()
			took = min(took, time.Since(start))
		}
		if took > time.Millisecond {
			t.Errorf("lambda=%g: took %v", lambda, took)
		}
		if want := 1 / lambda * (1 + 1/lambda); !(math.Abs(got-want) <= 1e-12*want) {
			t.Errorf("lambda=%g: coefficient %g, want %g", lambda, got, want)
		}
	}
}
