package lp

import (
	"math"
	"testing"
)

func TestDualSimpleBudget(t *testing.T) {
	// max x s.t. x <= 4: dual of the budget row is 1.
	p := New(Maximize, 1)
	_ = p.SetObjective([]float64{1})
	mustAdd(t, p, []float64{1}, LE, 4)
	sol := solveOK(t, p)
	if len(sol.Duals) != 1 || math.Abs(sol.Duals[0]-1) > 1e-9 {
		t.Fatalf("duals = %v, want [1]", sol.Duals)
	}
}

func TestDualNonBindingIsZero(t *testing.T) {
	// max x s.t. x <= 4, x <= 10: the loose row has zero price.
	p := New(Maximize, 1)
	_ = p.SetObjective([]float64{1})
	mustAdd(t, p, []float64{1}, LE, 4)
	mustAdd(t, p, []float64{1}, LE, 10)
	sol := solveOK(t, p)
	if math.Abs(sol.Duals[0]-1) > 1e-9 || math.Abs(sol.Duals[1]) > 1e-9 {
		t.Fatalf("duals = %v, want [1 0]", sol.Duals)
	}
}

func TestDualClassic2D(t *testing.T) {
	// max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18.
	// Optimum (2,6): binding rows 2 and 3; known duals (0, 1.5, 1).
	p := New(Maximize, 2)
	_ = p.SetObjective([]float64{3, 5})
	mustAdd(t, p, []float64{1, 0}, LE, 4)
	mustAdd(t, p, []float64{0, 2}, LE, 12)
	mustAdd(t, p, []float64{3, 2}, LE, 18)
	sol := solveOK(t, p)
	want := []float64{0, 1.5, 1}
	for i := range want {
		if math.Abs(sol.Duals[i]-want[i]) > 1e-9 {
			t.Fatalf("duals = %v, want %v", sol.Duals, want)
		}
	}
	// Strong duality: y·b equals the optimum.
	yb := sol.Duals[0]*4 + sol.Duals[1]*12 + sol.Duals[2]*18
	if math.Abs(yb-sol.Objective) > 1e-9 {
		t.Fatalf("y·b = %g, objective = %g", yb, sol.Objective)
	}
}

func TestDualMinimizationGE(t *testing.T) {
	// min 2x + 3y s.t. x + y >= 10 (x,y >= 0): optimum 20 at (10,0); the
	// covering row's dual is 2 (cost of one more unit of demand).
	p := New(Minimize, 2)
	_ = p.SetObjective([]float64{2, 3})
	mustAdd(t, p, []float64{1, 1}, GE, 10)
	sol := solveOK(t, p)
	if math.Abs(sol.Duals[0]-2) > 1e-9 {
		t.Fatalf("dual = %v, want 2", sol.Duals)
	}
}

func TestDualEqualityRow(t *testing.T) {
	// min x + 4y s.t. x + y = 5 (x,y ≥ 0): optimum x=5, dual = 1.
	p := New(Minimize, 2)
	_ = p.SetObjective([]float64{1, 4})
	mustAdd(t, p, []float64{1, 1}, EQ, 5)
	sol := solveOK(t, p)
	if math.Abs(sol.Duals[0]-1) > 1e-9 {
		t.Fatalf("dual = %v, want 1", sol.Duals)
	}
}

func TestDualNegativeRHSNormalization(t *testing.T) {
	// min x s.t. -x <= -3 (i.e. x >= 3): dual of the row as *written*:
	// d(obj)/d(rhs) with rhs = -3; relaxing rhs to -2 gives x >= 2 →
	// objective 2, so the derivative is +... obj(rhs) = -rhs → dual = -1.
	p := New(Minimize, 1)
	_ = p.SetObjective([]float64{1})
	mustAdd(t, p, []float64{-1}, LE, -3)
	sol := solveOK(t, p)
	if math.Abs(sol.Duals[0]-(-1)) > 1e-9 {
		t.Fatalf("dual = %v, want -1", sol.Duals)
	}
}

func TestDualsMatchFiniteDifference(t *testing.T) {
	// Perturb each rhs of a random-but-fixed LP and compare the dual to
	// the finite-difference objective change.
	build := func(b []float64) *Problem {
		p := New(Maximize, 3)
		_ = p.SetObjective([]float64{2, 3, 1})
		for i := 0; i < 3; i++ {
			_ = p.SetBounds(i, 0, 100)
		}
		mustAddT(p, []float64{1, 1, 1}, LE, b[0])
		mustAddT(p, []float64{2, 1, 0}, LE, b[1])
		mustAddT(p, []float64{0, 1, 3}, LE, b[2])
		return p
	}
	base := []float64{10, 12, 15}
	sol := mustSolve(t, build(base))
	const h = 1e-4
	for i := range base {
		bumped := append([]float64(nil), base...)
		bumped[i] += h
		solUp := mustSolve(t, build(bumped))
		fd := (solUp.Objective - sol.Objective) / h
		if math.Abs(fd-sol.Duals[i]) > 1e-5 {
			t.Fatalf("row %d: dual %g vs finite difference %g", i, sol.Duals[i], fd)
		}
	}
}

// mustAddT is mustAdd without a *testing.T (used inside closures).
func mustAddT(p *Problem, c []float64, rel Rel, rhs float64) {
	if err := p.AddConstraint(c, rel, rhs); err != nil {
		panic(err)
	}
}

func TestDualsSignalingBudgetValue(t *testing.T) {
	// Domain check: in the audit allocation LP, the budget row's dual is
	// the marginal value of one more audit unit — positive while coverage
	// is scarce.
	p := New(Maximize, 1)
	_ = p.SetObjective([]float64{500.0 / 196.57}) // dU/dB for type 1 at λ=196.57 (approx)
	_ = p.SetBounds(0, 0, 196.57)
	mustAdd(t, p, []float64{1}, LE, 20)
	sol := solveOK(t, p)
	if sol.Duals[0] <= 0 {
		t.Fatalf("budget shadow price %g should be positive under scarcity", sol.Duals[0])
	}
}
