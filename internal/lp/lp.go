// Package lp implements a small, dependency-free linear programming solver.
//
// The package exists because the Go standard library ships no LP solver and
// the Signaling Audit Game needs to solve two families of linear programs in
// real time: the multiple-LP Stackelberg program (LP (2) in the paper) and
// the optimal-signaling program (LP (3)). Both are tiny — at most a few
// dozen variables — so a dense two-phase primal simplex with careful
// tolerances is exact enough and extremely fast.
//
// The entry point is Problem: declare variables, an objective, bounds and
// linear constraints, then call Solve. The solver reports one of three
// outcomes (Optimal, Infeasible, Unbounded) and, when optimal, the primal
// solution and objective value.
//
// The implementation uses Dantzig pricing with an automatic switch to
// Bland's rule when stalling is detected, which guarantees termination on
// degenerate problems (the signaling LPs are frequently degenerate: several
// of their vertices collapse when the attacker is exactly indifferent).
package lp

import (
	"errors"
	"fmt"
	"math"
)

// Sense is the optimization direction of a Problem.
type Sense int

const (
	// Minimize asks for the smallest objective value.
	Minimize Sense = iota
	// Maximize asks for the largest objective value.
	Maximize
)

// String returns a human-readable direction name.
func (s Sense) String() string {
	switch s {
	case Minimize:
		return "minimize"
	case Maximize:
		return "maximize"
	default:
		return fmt.Sprintf("Sense(%d)", int(s))
	}
}

// Rel is the relation of a linear constraint to its right-hand side.
type Rel int

const (
	// LE is "less than or equal" (a·x ≤ b).
	LE Rel = iota
	// GE is "greater than or equal" (a·x ≥ b).
	GE
	// EQ is equality (a·x = b).
	EQ
)

// String returns the relation symbol.
func (r Rel) String() string {
	switch r {
	case LE:
		return "<="
	case GE:
		return ">="
	case EQ:
		return "="
	default:
		return fmt.Sprintf("Rel(%d)", int(r))
	}
}

// Status is the outcome of solving a Problem.
type Status int

const (
	// Optimal means a finite optimal solution was found.
	Optimal Status = iota
	// Infeasible means no point satisfies all constraints and bounds.
	Infeasible
	// Unbounded means the objective can be improved without limit.
	Unbounded
)

// String returns a human-readable status name.
func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Infeasible:
		return "infeasible"
	case Unbounded:
		return "unbounded"
	default:
		return fmt.Sprintf("Status(%d)", int(s))
	}
}

// Constraint is one linear restriction a·x Rel b over the problem variables.
// Coeffs is indexed by variable; missing trailing entries are treated as 0.
type Constraint struct {
	Coeffs []float64
	Rel    Rel
	RHS    float64
}

// Problem is a linear program under construction. Create one with New, add
// an objective, bounds, and constraints, then call Solve. A Problem is not
// safe for concurrent mutation; Solve does not mutate the Problem and may be
// called concurrently on the same immutable Problem.
type Problem struct {
	sense       Sense
	n           int
	objective   []float64
	lower       []float64
	upper       []float64
	constraints []Constraint
}

// New returns an empty Problem over n variables with the given optimization
// sense. All variables start with bounds [0, +Inf), the conventional LP
// default; use SetBounds to change them. New panics if n <= 0 — a program
// with no variables is always a caller bug in this codebase.
func New(sense Sense, n int) *Problem {
	if n <= 0 {
		panic(fmt.Sprintf("lp: New called with n=%d; need at least one variable", n))
	}
	p := &Problem{
		sense:     sense,
		n:         n,
		objective: make([]float64, n),
		lower:     make([]float64, n),
		upper:     make([]float64, n),
	}
	for i := range p.upper {
		p.upper[i] = math.Inf(1)
	}
	return p
}

// SetObjective sets the objective coefficient vector. Shorter slices are
// zero-extended. It returns an error if more coefficients than variables are
// provided.
func (p *Problem) SetObjective(coeffs []float64) error {
	if len(coeffs) > p.n {
		return fmt.Errorf("lp: objective has %d coefficients but problem has %d variables", len(coeffs), p.n)
	}
	for i := range p.objective {
		p.objective[i] = 0
	}
	copy(p.objective, coeffs)
	return nil
}

// SetBounds sets the inclusive bounds of variable i. lo may be -Inf and hi
// may be +Inf. It returns an error for an out-of-range index or an empty
// interval.
func (p *Problem) SetBounds(i int, lo, hi float64) error {
	if i < 0 || i >= p.n {
		return fmt.Errorf("lp: variable index %d out of range [0,%d)", i, p.n)
	}
	if math.IsNaN(lo) || math.IsNaN(hi) {
		return errors.New("lp: NaN bound")
	}
	if lo > hi {
		return fmt.Errorf("lp: empty bound interval [%g,%g] for variable %d", lo, hi, i)
	}
	p.lower[i] = lo
	p.upper[i] = hi
	return nil
}

// AddConstraint appends the constraint coeffs·x rel rhs. Shorter coefficient
// slices are zero-extended; longer ones are rejected. The slice is copied.
func (p *Problem) AddConstraint(coeffs []float64, rel Rel, rhs float64) error {
	if len(coeffs) > p.n {
		return fmt.Errorf("lp: constraint has %d coefficients but problem has %d variables", len(coeffs), p.n)
	}
	if math.IsNaN(rhs) {
		return errors.New("lp: NaN right-hand side")
	}
	for _, c := range coeffs {
		if math.IsNaN(c) || math.IsInf(c, 0) {
			return errors.New("lp: non-finite constraint coefficient")
		}
	}
	cc := make([]float64, p.n)
	copy(cc, coeffs)
	p.constraints = append(p.constraints, Constraint{Coeffs: cc, Rel: rel, RHS: rhs})
	return nil
}

// Solution is the result of solving a Problem. X and Objective are
// meaningful only when Status == Optimal.
type Solution struct {
	Status    Status
	X         []float64
	Objective float64
	// Duals holds one shadow price per constraint (in AddConstraint
	// order): the rate of change of the optimal objective per unit of
	// right-hand side, with the sign convention of the caller's
	// optimization sense (for Maximize, a binding ≤ budget row has a
	// nonnegative dual — the marginal value of one more unit of budget).
	// Only populated when Status == Optimal.
	Duals []float64
	// Iterations counts simplex pivots across both phases; exposed for
	// benchmarking and regression tests. Equal to Stats.Iterations().
	Iterations int
	// Stats breaks solver effort down by phase for observability callers.
	Stats Stats
}

// Stats itemizes the work one Solve call performed. The engine aggregates
// these into its simplex counters; sagbench prints them next to timings.
type Stats struct {
	// Phase1Iterations and Phase2Iterations count simplex iterations in the
	// feasibility and optimization phases respectively.
	Phase1Iterations int
	Phase2Iterations int
	// Pivots counts full tableau pivot eliminations, including the
	// drive-out pivots between phases that the iteration counts exclude.
	Pivots int
}

// Iterations returns the total simplex iterations across both phases.
func (s Stats) Iterations() int { return s.Phase1Iterations + s.Phase2Iterations }

// feasTol is the feasibility/optimality tolerance used throughout the
// solver. The audit-game LPs have coefficients of magnitude 1e0–1e4, for
// which 1e-9 comfortably separates true vertices from round-off.
const feasTol = 1e-9

// Violation returns the largest absolute violation of the problem's
// constraints and bounds at x, for verification in tests and callers that
// want a safety check. It returns an error if x has the wrong length.
func (p *Problem) Violation(x []float64) (float64, error) {
	if len(x) != p.n {
		return 0, fmt.Errorf("lp: point has %d entries, problem has %d variables", len(x), p.n)
	}
	worst := 0.0
	for i, xi := range x {
		if v := p.lower[i] - xi; v > worst {
			worst = v
		}
		if v := xi - p.upper[i]; v > worst {
			worst = v
		}
	}
	for _, c := range p.constraints {
		dot := 0.0
		for i, a := range c.Coeffs {
			dot += a * x[i]
		}
		var v float64
		switch c.Rel {
		case LE:
			v = dot - c.RHS
		case GE:
			v = c.RHS - dot
		case EQ:
			v = math.Abs(dot - c.RHS)
		}
		if v > worst {
			worst = v
		}
	}
	return worst, nil
}

// Objective evaluates the objective at x (regardless of feasibility).
func (p *Problem) ObjectiveAt(x []float64) float64 {
	v := 0.0
	for i := 0; i < p.n && i < len(x); i++ {
		v += p.objective[i] * x[i]
	}
	return v
}
