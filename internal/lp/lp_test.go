package lp

import (
	"math"
	"testing"
)

func solveOK(t *testing.T, p *Problem) *Solution {
	t.Helper()
	sol, err := Solve(p)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	return sol
}

func mustSolve(t *testing.T, p *Problem) *Solution {
	t.Helper()
	sol := solveOK(t, p)
	if sol.Status != Optimal {
		t.Fatalf("status = %v, want optimal", sol.Status)
	}
	return sol
}

func wantOptimal(t *testing.T, p *Problem, wantObj float64, wantX []float64) *Solution {
	t.Helper()
	sol := mustSolve(t, p)
	if math.Abs(sol.Objective-wantObj) > 1e-6 {
		t.Fatalf("objective = %g, want %g (x=%v)", sol.Objective, wantObj, sol.X)
	}
	if wantX != nil {
		for i := range wantX {
			if math.Abs(sol.X[i]-wantX[i]) > 1e-6 {
				t.Fatalf("x = %v, want %v", sol.X, wantX)
			}
		}
	}
	if v, err := p.Violation(sol.X); err != nil || v > 1e-6 {
		t.Fatalf("solution violates constraints by %g (err=%v)", v, err)
	}
	return sol
}

func TestMaximizeSimple2D(t *testing.T) {
	// max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18 (classic Dantzig).
	p := New(Maximize, 2)
	if err := p.SetObjective([]float64{3, 5}); err != nil {
		t.Fatal(err)
	}
	mustAdd(t, p, []float64{1, 0}, LE, 4)
	mustAdd(t, p, []float64{0, 2}, LE, 12)
	mustAdd(t, p, []float64{3, 2}, LE, 18)
	wantOptimal(t, p, 36, []float64{2, 6})
}

func mustAdd(t *testing.T, p *Problem, c []float64, rel Rel, rhs float64) {
	t.Helper()
	if err := p.AddConstraint(c, rel, rhs); err != nil {
		t.Fatal(err)
	}
}

func TestMinimizeWithGE(t *testing.T) {
	// min 2x + 3y s.t. x + y >= 10, x >= 2, y >= 3.
	p := New(Minimize, 2)
	if err := p.SetObjective([]float64{2, 3}); err != nil {
		t.Fatal(err)
	}
	mustAdd(t, p, []float64{1, 1}, GE, 10)
	if err := p.SetBounds(0, 2, math.Inf(1)); err != nil {
		t.Fatal(err)
	}
	if err := p.SetBounds(1, 3, math.Inf(1)); err != nil {
		t.Fatal(err)
	}
	wantOptimal(t, p, 2*7+3*3, []float64{7, 3})
}

func TestEqualityConstraint(t *testing.T) {
	// max x + y s.t. x + y = 5, x <= 3.
	p := New(Maximize, 2)
	_ = p.SetObjective([]float64{1, 1})
	mustAdd(t, p, []float64{1, 1}, EQ, 5)
	mustAdd(t, p, []float64{1, 0}, LE, 3)
	wantOptimal(t, p, 5, nil)
}

func TestInfeasible(t *testing.T) {
	p := New(Maximize, 1)
	_ = p.SetObjective([]float64{1})
	mustAdd(t, p, []float64{1}, GE, 5)
	mustAdd(t, p, []float64{1}, LE, 3)
	sol := solveOK(t, p)
	if sol.Status != Infeasible {
		t.Fatalf("status = %v, want infeasible", sol.Status)
	}
}

func TestInfeasibleZeroRow(t *testing.T) {
	// 0·x >= 5 is structurally infeasible.
	p := New(Minimize, 2)
	_ = p.SetObjective([]float64{1, 1})
	mustAdd(t, p, []float64{0, 0}, GE, 5)
	sol := solveOK(t, p)
	if sol.Status != Infeasible {
		t.Fatalf("status = %v, want infeasible", sol.Status)
	}
}

func TestRedundantZeroRowFeasible(t *testing.T) {
	// 0·x = 0 is vacuous and must not break the solve.
	p := New(Maximize, 1)
	_ = p.SetObjective([]float64{1})
	mustAdd(t, p, []float64{0}, EQ, 0)
	mustAdd(t, p, []float64{1}, LE, 7)
	wantOptimal(t, p, 7, []float64{7})
}

func TestUnbounded(t *testing.T) {
	p := New(Maximize, 2)
	_ = p.SetObjective([]float64{1, 1})
	mustAdd(t, p, []float64{1, -1}, LE, 1)
	sol := solveOK(t, p)
	if sol.Status != Unbounded {
		t.Fatalf("status = %v, want unbounded", sol.Status)
	}
}

func TestUnboundedBelowMinimize(t *testing.T) {
	p := New(Minimize, 1)
	_ = p.SetObjective([]float64{1})
	if err := p.SetBounds(0, math.Inf(-1), 0); err != nil {
		t.Fatal(err)
	}
	sol := solveOK(t, p)
	if sol.Status != Unbounded {
		t.Fatalf("status = %v, want unbounded", sol.Status)
	}
}

func TestNegativeLowerBound(t *testing.T) {
	// min x s.t. x >= -5 → x = -5.
	p := New(Minimize, 1)
	_ = p.SetObjective([]float64{1})
	if err := p.SetBounds(0, -5, 10); err != nil {
		t.Fatal(err)
	}
	wantOptimal(t, p, -5, []float64{-5})
}

func TestUpperBoundOnly(t *testing.T) {
	// max x s.t. x <= 3 with lower bound -Inf.
	p := New(Maximize, 1)
	_ = p.SetObjective([]float64{1})
	if err := p.SetBounds(0, math.Inf(-1), 3); err != nil {
		t.Fatal(err)
	}
	wantOptimal(t, p, 3, []float64{3})
}

func TestFreeVariable(t *testing.T) {
	// min x + y, x free, y in [0,inf), x + y >= 2, x >= -4 via constraint.
	p := New(Minimize, 2)
	_ = p.SetObjective([]float64{1, 1})
	if err := p.SetBounds(0, math.Inf(-1), math.Inf(1)); err != nil {
		t.Fatal(err)
	}
	mustAdd(t, p, []float64{1, 1}, GE, 2)
	mustAdd(t, p, []float64{1, 0}, GE, -4)
	wantOptimal(t, p, 2, nil)
}

func TestFixedVariable(t *testing.T) {
	// Bounds [2,2] pin a variable.
	p := New(Maximize, 2)
	_ = p.SetObjective([]float64{1, 1})
	if err := p.SetBounds(0, 2, 2); err != nil {
		t.Fatal(err)
	}
	mustAdd(t, p, []float64{1, 1}, LE, 10)
	wantOptimal(t, p, 10, []float64{2, 8})
}

func TestNegativeRHSNormalization(t *testing.T) {
	// -x - y <= -4 is x + y >= 4.
	p := New(Minimize, 2)
	_ = p.SetObjective([]float64{1, 2})
	mustAdd(t, p, []float64{-1, -1}, LE, -4)
	wantOptimal(t, p, 4, []float64{4, 0})
}

func TestDegenerateCyclePotential(t *testing.T) {
	// Beale's classic cycling example; Bland fallback must terminate.
	p := New(Minimize, 4)
	_ = p.SetObjective([]float64{-0.75, 150, -0.02, 6})
	mustAdd(t, p, []float64{0.25, -60, -0.04, 9}, LE, 0)
	mustAdd(t, p, []float64{0.5, -90, -0.02, 3}, LE, 0)
	mustAdd(t, p, []float64{0, 0, 1, 0}, LE, 1)
	sol := solveOK(t, p)
	if sol.Status != Optimal {
		t.Fatalf("status = %v, want optimal", sol.Status)
	}
	if math.Abs(sol.Objective-(-0.05)) > 1e-6 {
		t.Fatalf("objective = %g, want -0.05", sol.Objective)
	}
}

func TestSignalingShapedLP(t *testing.T) {
	// LP (3) from the paper with type-1 payoffs and θ = 0.1:
	// max 100 p0 - 400 q0
	// s.t. -2000 p1 + 400 q1 <= 0; p1 + p0 = 0.1; q1 + q0 = 0.9; all in [0,1].
	p := New(Maximize, 4) // p1, q1, p0, q0
	_ = p.SetObjective([]float64{0, 0, 100, -400})
	for i := 0; i < 4; i++ {
		if err := p.SetBounds(i, 0, 1); err != nil {
			t.Fatal(err)
		}
	}
	mustAdd(t, p, []float64{-2000, 400, 0, 0}, LE, 0)
	mustAdd(t, p, []float64{1, 0, 1, 0}, EQ, 0.1)
	mustAdd(t, p, []float64{0, 1, 0, 1}, EQ, 0.9)
	sol := wantOptimal(t, p, -400*(0.1*-2000+0.9*400)/400, nil)
	// Theorem 3: p0 = 0 at the optimum; β = 0.1(-2000)+0.9(400) = 160 > 0,
	// objective = U_du·β/U_au = -400·160/400 = -160.
	if math.Abs(sol.X[2]) > 1e-7 {
		t.Fatalf("p0 = %g, want 0 (Theorem 3)", sol.X[2])
	}
	if math.Abs(sol.Objective-(-160)) > 1e-6 {
		t.Fatalf("objective = %g, want -160", sol.Objective)
	}
}

func TestEmptyObjectiveIsFeasibilityCheck(t *testing.T) {
	p := New(Minimize, 2)
	mustAdd(t, p, []float64{1, 1}, EQ, 3)
	sol := solveOK(t, p)
	if sol.Status != Optimal {
		t.Fatalf("status = %v, want optimal", sol.Status)
	}
	if math.Abs(sol.X[0]+sol.X[1]-3) > 1e-7 {
		t.Fatalf("x = %v does not satisfy x+y=3", sol.X)
	}
}

func TestSolveDoesNotMutateProblem(t *testing.T) {
	p := New(Maximize, 2)
	_ = p.SetObjective([]float64{1, 2})
	mustAdd(t, p, []float64{1, 1}, LE, 4)
	before := append([]float64(nil), p.objective...)
	_ = solveOK(t, p)
	_ = solveOK(t, p) // solving twice must give identical results
	for i := range before {
		if p.objective[i] != before[i] {
			t.Fatal("Solve mutated the problem objective")
		}
	}
}

func TestAPIErrors(t *testing.T) {
	p := New(Minimize, 2)
	if err := p.SetObjective([]float64{1, 2, 3}); err == nil {
		t.Error("SetObjective with too many coefficients should fail")
	}
	if err := p.AddConstraint([]float64{1, 2, 3}, LE, 0); err == nil {
		t.Error("AddConstraint with too many coefficients should fail")
	}
	if err := p.AddConstraint([]float64{math.NaN()}, LE, 0); err == nil {
		t.Error("AddConstraint with NaN coefficient should fail")
	}
	if err := p.AddConstraint([]float64{1}, LE, math.NaN()); err == nil {
		t.Error("AddConstraint with NaN rhs should fail")
	}
	if err := p.SetBounds(5, 0, 1); err == nil {
		t.Error("SetBounds out of range should fail")
	}
	if err := p.SetBounds(0, 2, 1); err == nil {
		t.Error("SetBounds with empty interval should fail")
	}
	if err := p.SetBounds(0, math.NaN(), 1); err == nil {
		t.Error("SetBounds with NaN should fail")
	}
}

func TestNewPanicsOnZeroVars(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(_,0) should panic")
		}
	}()
	New(Minimize, 0)
}

func TestStringers(t *testing.T) {
	cases := []struct {
		got, want string
	}{
		{Minimize.String(), "minimize"},
		{Maximize.String(), "maximize"},
		{LE.String(), "<="},
		{GE.String(), ">="},
		{EQ.String(), "="},
		{Optimal.String(), "optimal"},
		{Infeasible.String(), "infeasible"},
		{Unbounded.String(), "unbounded"},
	}
	for _, c := range cases {
		if c.got != c.want {
			t.Errorf("String() = %q, want %q", c.got, c.want)
		}
	}
	if Sense(99).String() == "" || Rel(99).String() == "" || Status(99).String() == "" {
		t.Error("out-of-range stringers should not be empty")
	}
}

func TestViolationReporting(t *testing.T) {
	p := New(Minimize, 2)
	mustAdd(t, p, []float64{1, 1}, GE, 10)
	v, err := p.Violation([]float64{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(v-8) > 1e-12 {
		t.Fatalf("violation = %g, want 8", v)
	}
	if _, err := p.Violation([]float64{1}); err == nil {
		t.Error("Violation with wrong-length point should fail")
	}
}

func TestTransportationProblem(t *testing.T) {
	// 2 suppliers (cap 20, 30), 3 consumers (demand 10, 25, 15), min cost.
	// Costs: s1: 2 4 5 / s2: 3 1 7. Optimal: s1→c1 5, s1→c3 15, s2→c1 5,
	// s2→c2 25 → 2·5+5·15+3·5+1·25 = 125.
	p := New(Minimize, 6)
	_ = p.SetObjective([]float64{2, 4, 5, 3, 1, 7})
	mustAdd(t, p, []float64{1, 1, 1, 0, 0, 0}, LE, 20)
	mustAdd(t, p, []float64{0, 0, 0, 1, 1, 1}, LE, 30)
	mustAdd(t, p, []float64{1, 0, 0, 1, 0, 0}, EQ, 10)
	mustAdd(t, p, []float64{0, 1, 0, 0, 1, 0}, EQ, 25)
	mustAdd(t, p, []float64{0, 0, 1, 0, 0, 1}, EQ, 15)
	wantOptimal(t, p, 125, nil)
}

func TestLargeRandomFeasibleBattery(t *testing.T) {
	// Deterministic battery of randomly generated feasible LPs; verifies the
	// solver finds a feasible point whose objective at least matches the
	// generator's seed point (which is feasible by construction).
	rng := newLCG(42)
	for trial := 0; trial < 60; trial++ {
		n := 2 + int(rng.next()%5)
		m := 1 + int(rng.next()%6)
		p := New(Maximize, n)
		obj := make([]float64, n)
		seed := make([]float64, n)
		for i := range obj {
			obj[i] = rng.unit()*4 - 2
			seed[i] = rng.unit() * 3
		}
		_ = p.SetObjective(obj)
		for i := 0; i < n; i++ {
			_ = p.SetBounds(i, 0, 10)
		}
		for k := 0; k < m; k++ {
			row := make([]float64, n)
			dot := 0.0
			for i := range row {
				row[i] = rng.unit()*2 - 0.5
				dot += row[i] * seed[i]
			}
			// rhs = dot + slack keeps the seed point feasible.
			mustAdd(t, p, row, LE, dot+rng.unit())
		}
		sol := solveOK(t, p)
		if sol.Status != Optimal {
			t.Fatalf("trial %d: status = %v, want optimal", trial, sol.Status)
		}
		if v, _ := p.Violation(sol.X); v > 1e-6 {
			t.Fatalf("trial %d: violation %g", trial, v)
		}
		seedObj := p.ObjectiveAt(seed)
		if sol.Objective < seedObj-1e-6 {
			t.Fatalf("trial %d: objective %g worse than known feasible %g", trial, sol.Objective, seedObj)
		}
	}
}

// lcg is a tiny deterministic generator so the battery above is reproducible
// without seeding global rand.
type lcg struct{ s uint64 }

func newLCG(seed uint64) *lcg { return &lcg{s: seed} }

func (l *lcg) next() uint64 {
	l.s = l.s*6364136223846793005 + 1442695040888963407
	return l.s >> 16
}

func (l *lcg) unit() float64 { return float64(l.next()%1_000_000) / 1_000_000 }
