package dist

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestPoissonPMFSumsToOne(t *testing.T) {
	for _, lambda := range []float64{0.1, 1, 4, 25, 140.46, 196.57} {
		p := Poisson{Lambda: lambda}
		sum := 0.0
		limit := int(lambda + 15*math.Sqrt(lambda+1) + 20)
		for k := 0; k <= limit; k++ {
			sum += p.PMF(k)
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("lambda=%g: PMF sums to %g", lambda, sum)
		}
	}
}

func TestPoissonPMFKnownValues(t *testing.T) {
	p := Poisson{Lambda: 2}
	// P(X=0)=e^-2, P(X=1)=2e^-2, P(X=3)=8/6·e^-2.
	e2 := math.Exp(-2)
	cases := []struct {
		k    int
		want float64
	}{
		{0, e2}, {1, 2 * e2}, {3, 8.0 / 6.0 * e2}, {-1, 0},
	}
	for _, c := range cases {
		if got := p.PMF(c.k); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("PMF(%d) = %g, want %g", c.k, got, c.want)
		}
	}
}

func TestPoissonZeroRate(t *testing.T) {
	p := Poisson{}
	if p.PMF(0) != 1 || p.PMF(1) != 0 {
		t.Error("zero-rate Poisson should be a point mass at 0")
	}
	if p.CDF(0) != 1 {
		t.Error("zero-rate CDF(0) should be 1")
	}
	if p.Quantile(0.99) != 0 {
		t.Error("zero-rate quantile should be 0")
	}
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

func TestPoissonCDFMonotoneAndConsistent(t *testing.T) {
	p := Poisson{Lambda: 7.3}
	prev := 0.0
	acc := 0.0
	for k := 0; k <= 40; k++ {
		acc += p.PMF(k)
		c := p.CDF(k)
		if c < prev-1e-12 {
			t.Fatalf("CDF not monotone at k=%d", k)
		}
		if math.Abs(c-acc) > 1e-9 {
			t.Fatalf("CDF(%d)=%g disagrees with PMF prefix sum %g", k, c, acc)
		}
		prev = c
	}
}

func TestPoissonQuantileInvertsCDF(t *testing.T) {
	p := Poisson{Lambda: 12}
	for _, q := range []float64{0.01, 0.25, 0.5, 0.75, 0.99} {
		k := p.Quantile(q)
		if p.CDF(k) < q {
			t.Errorf("CDF(Quantile(%g)) = %g < %g", q, p.CDF(k), q)
		}
		if k > 0 && p.CDF(k-1) >= q {
			t.Errorf("Quantile(%g) = %d is not minimal", q, k)
		}
	}
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

func TestInverseMeanCoefficientMatchesBruteForce(t *testing.T) {
	for _, lambda := range []float64{0.3, 1.7, 4, 11, 43.27} {
		p := Poisson{Lambda: lambda}
		brute := p.PMF(0)
		limit := int(lambda + 20*math.Sqrt(lambda+1) + 30)
		for d := 1; d <= limit; d++ {
			brute += p.PMF(d) / float64(d)
		}
		if got := p.InverseMeanCoefficient(); math.Abs(got-brute) > 1e-9 {
			t.Errorf("lambda=%g: coefficient %g, brute force %g", lambda, got, brute)
		}
	}
}

// TestInverseMeanCoefficientLargeRates: e^−λ underflows from λ ≈ 745, where
// the from-zero series used to return 0. The coefficient must follow
// E[1/D] = 1/λ·(1 + 1/λ + 2/λ² + 6/λ³ + …) on both sides of the switch to the
// from-the-mode sum, and be continuous across it.
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
	// Both sums at the same rate agree far below what the LP can see.
	for _, lambda := range []float64{50, 300, inverseMeanFromZeroMax} {
		zero, mode := Poisson{Lambda: lambda}.InverseMeanCoefficient(), inverseMeanFromMode(lambda)
		if math.Abs(zero-mode) > 1e-10*zero {
			t.Errorf("lambda=%g: from zero %g, from the mode %g", lambda, zero, mode)
		}
	}
	below := Poisson{Lambda: inverseMeanFromZeroMax}.InverseMeanCoefficient()
	above := Poisson{Lambda: math.Nextafter(inverseMeanFromZeroMax, math.Inf(1))}.InverseMeanCoefficient()
	if math.Abs(below-above) > 1e-10*below {
		t.Errorf("jump across the switch: %g → %g", below, above)
	}
}

func TestFitPoisson(t *testing.T) {
	p, err := FitPoisson([]float64{1, 2, 3, 4})
	if err != nil || p.Lambda != 2.5 {
		t.Errorf("FitPoisson = %v, %v; want lambda 2.5", p, err)
	}
	if _, err := FitPoisson(nil); err == nil {
		t.Error("empty sample should be rejected")
	}
	if _, err := FitPoisson([]float64{1, -2}); err == nil {
		t.Error("negative count should be rejected")
	}
}

func TestQuickPMFNonNegative(t *testing.T) {
	prop := func(rawLambda float64, k int) bool {
		lambda := math.Mod(math.Abs(rawLambda), 300)
		if math.IsNaN(lambda) {
			lambda = 1
		}
		p := Poisson{Lambda: lambda}
		v := p.PMF(k % 1000)
		return v >= 0 && v <= 1 && !math.IsNaN(v)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickCDFBounds(t *testing.T) {
	prop := func(rawLambda float64, rawK int) bool {
		lambda := math.Mod(math.Abs(rawLambda), 250)
		if math.IsNaN(lambda) {
			lambda = 2
		}
		k := rawK % 500
		if k < 0 {
			k = -k
		}
		c := Poisson{Lambda: lambda}.CDF(k)
		return c >= 0 && c <= 1 && !math.IsNaN(c)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
