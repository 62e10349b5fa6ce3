package dist

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestRunningBasics(t *testing.T) {
	var r Running
	if r.Mean() != 0 || r.Std() != 0 {
		t.Fatal("zero-value Running should report zeros")
	}
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		r.Add(x)
	}
	if math.Abs(r.Mean()-5) > 1e-12 {
		t.Fatalf("Mean = %g, want 5", r.Mean())
	}
	// Sample std of that classic dataset: sqrt(32/7).
	want := math.Sqrt(32.0 / 7.0)
	if math.Abs(r.Std()-want) > 1e-12 {
		t.Fatalf("Std = %g, want %g", r.Std(), want)
	}
	if r.Min() != 2 || r.Max() != 9 {
		t.Fatalf("Min/Max = %g/%g, want 2/9", r.Min(), r.Max())
	}
}

func TestRunningSingleObservation(t *testing.T) {
	var r Running
	r.Add(3.5)
	if r.Std() != 0 {
		t.Error("Std with one observation should be 0")
	}
	if r.Min() != 3.5 || r.Max() != 3.5 {
		t.Error("Min/Max with one observation should equal it")
	}
}

func TestNormalValidationAndSampling(t *testing.T) {
	n := Normal{Mu: 10, Sigma: 2}
	rng := rand.New(rand.NewSource(11))
	var r Running
	for i := 0; i < 20000; i++ {
		r.Add(n.Sample(rng))
	}
	if math.Abs(r.Mean()-10) > 0.1 {
		t.Errorf("sample mean %g, want ≈10", r.Mean())
	}
	if math.Abs(r.Std()-2) > 0.1 {
		t.Errorf("sample std %g, want ≈2", r.Std())
	}
}

func TestSamplePositive(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	n := Normal{Mu: 0.5, Sigma: 5} // frequently negative draws
	for i := 0; i < 1000; i++ {
		if v := n.SamplePositive(rng); v <= 0 {
			t.Fatalf("SamplePositive returned %g", v)
		}
	}
	// Degenerate distribution that can never be positive exercises the
	// fallback path.
	d := Normal{Mu: -3, Sigma: 0}
	if v := d.SamplePositive(rng); v != 1 {
		t.Fatalf("fallback = %g, want max(mu,1)=1", v)
	}
}

func TestQuickRunningMeanWithinMinMax(t *testing.T) {
	prop := func(xs []float64) bool {
		var r Running
		n := 0
		for _, x := range xs {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				continue
			}
			x = math.Mod(x, 1e6)
			r.Add(x)
			n++
		}
		if n == 0 {
			return true
		}
		return r.Mean() >= r.Min()-1e-9 && r.Mean() <= r.Max()+1e-9 && r.Std() >= 0
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
