package signaling

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"github.com/auditgames/sag/internal/lp"
	"github.com/auditgames/sag/internal/payoff"
)

// This file generalizes the signaling scheme from the paper's binary
// alphabet {warn, silent} to n distinct signals, each with its own audit
// probability. Persuasion theory (Kamenica–Gentzkow; Xu et al. 2015) says
// the binary scheme is already optimal — against a single receiver with a
// binary action, more signals cannot help — and solveNSignal lets the tests
// below verify that claim numerically on this game rather than take it on
// faith. It is a test, not a solver anyone should call: 2^n LPs to learn
// what Solve already returns.

// nSignalScheme is a joint distribution over n signals × {audit, skip}.
type nSignalScheme struct {
	// P[s] = P(signal s, audit); Q[s] = P(signal s, no audit).
	P, Q []float64
	// Proceeds[s] reports the attacker's best response to signal s.
	Proceeds        []bool
	DefenderUtility float64
	AttackerUtility float64
}

// maxSignals bounds the response-pattern enumeration (2^n LPs).
const maxSignals = 10

// solveNSignal computes the optimal n-signal scheme for one alert with
// marginal audit probability theta. Signal 0 plays the paper's "silent"
// role: the requester sees nothing and always proceeds. Signals 1..n-1 are
// distinct warning dialogs whose proceed/quit responses are the attacker's
// choice; the solver enumerates all response patterns and keeps the best
// feasible one. n = 2 is exactly the paper's LP (3).
func solveNSignal(pf payoff.Payoff, theta float64, n int) (nSignalScheme, error) {
	if err := pf.Validate(); err != nil {
		return nSignalScheme{}, err
	}
	if theta < 0 || theta > 1 || math.IsNaN(theta) {
		return nSignalScheme{}, fmt.Errorf("signaling: theta %g out of [0,1]", theta)
	}
	if n < 1 || n > maxSignals {
		return nSignalScheme{}, fmt.Errorf("signaling: n %d out of [1,%d]", n, maxSignals)
	}
	best := nSignalScheme{DefenderUtility: math.Inf(-1)}
	found := false
	// Enumerate proceed/quit patterns for the warning signals (signal 0
	// always proceeds) and, per pattern, both participation regimes — the
	// attacker attacking (utility ≥ 0 enforced) or staying out (≤ 0, both
	// sides scoring zero).
	warnings := n - 1
	for mask := 0; mask < 1<<warnings; mask++ {
		for _, participates := range []bool{true, false} {
			s, ok, err := solveNSignalPattern(pf, theta, n, mask, participates)
			if err != nil {
				return nSignalScheme{}, err
			}
			if ok && (!found || s.DefenderUtility > best.DefenderUtility+1e-12) {
				best = s
				found = true
			}
		}
	}
	if !found {
		return nSignalScheme{}, fmt.Errorf("signaling: no feasible response pattern (internal invariant violated)")
	}
	return best, nil
}

// solveNSignalPattern solves the LP with a fixed response pattern: bit
// s-1 of mask set means the attacker proceeds through warning signal s;
// participates fixes whether the attacker attacks at all.
func solveNSignalPattern(pf payoff.Payoff, theta float64, n, mask int, participates bool) (nSignalScheme, bool, error) {
	// Variables: p_0..p_{n-1}, q_0..q_{n-1}.
	nv := 2 * n
	prob := lp.New(lp.Maximize, nv)
	pIdx := func(s int) int { return s }
	qIdx := func(s int) int { return n + s }
	for i := 0; i < nv; i++ {
		if err := prob.SetBounds(i, 0, 1); err != nil {
			return nSignalScheme{}, false, err
		}
	}
	proceeds := func(s int) bool {
		if s == 0 {
			return true
		}
		return mask&(1<<(s-1)) != 0
	}

	// Objective: the auditor collects her victim-alert utility on every
	// signal the attacker proceeds through; a non-participating attacker
	// yields zero regardless of the split.
	obj := make([]float64, nv)
	if participates {
		for s := 0; s < n; s++ {
			if proceeds(s) {
				obj[pIdx(s)] = pf.DefenderCovered
				obj[qIdx(s)] = pf.DefenderUncovered
			}
		}
	}
	if err := prob.SetObjective(obj); err != nil {
		return nSignalScheme{}, false, err
	}

	// Marginals: Σ p_s = θ, Σ q_s = 1−θ.
	rowP := make([]float64, nv)
	rowQ := make([]float64, nv)
	for s := 0; s < n; s++ {
		rowP[pIdx(s)] = 1
		rowQ[qIdx(s)] = 1
	}
	if err := prob.AddConstraint(rowP, lp.EQ, theta); err != nil {
		return nSignalScheme{}, false, err
	}
	if err := prob.AddConstraint(rowQ, lp.EQ, 1-theta); err != nil {
		return nSignalScheme{}, false, err
	}

	// Incentive rows: the attacker's conditional utility at each warning
	// signal must match its assigned response; participation bounds the
	// total.
	for s := 1; s < n; s++ {
		row := make([]float64, nv)
		row[pIdx(s)] = pf.AttackerCovered
		row[qIdx(s)] = pf.AttackerUncovered
		if proceeds(s) {
			if err := prob.AddConstraint(row, lp.GE, 0); err != nil {
				return nSignalScheme{}, false, err
			}
		} else {
			if err := prob.AddConstraint(row, lp.LE, 0); err != nil {
				return nSignalScheme{}, false, err
			}
		}
	}
	// Participation sign: attacking must be weakly profitable when the
	// pattern says the attacker participates, weakly unprofitable when he
	// stays out.
	part := make([]float64, nv)
	for s := 0; s < n; s++ {
		if proceeds(s) {
			part[pIdx(s)] += pf.AttackerCovered
			part[qIdx(s)] += pf.AttackerUncovered
		}
	}
	rel := lp.GE
	if !participates {
		rel = lp.LE
	}
	if err := prob.AddConstraint(part, rel, 0); err != nil {
		return nSignalScheme{}, false, err
	}

	sol, err := lp.Solve(prob)
	if err != nil {
		return nSignalScheme{}, false, err
	}
	if sol.Status != lp.Optimal {
		return nSignalScheme{}, false, nil
	}
	s := nSignalScheme{
		P:        append([]float64(nil), sol.X[:n]...),
		Q:        append([]float64(nil), sol.X[n:]...),
		Proceeds: make([]bool, n),
	}
	attacker := 0.0
	for sig := 0; sig < n; sig++ {
		s.Proceeds[sig] = proceeds(sig)
		if proceeds(sig) {
			attacker += s.P[sig]*pf.AttackerCovered + s.Q[sig]*pf.AttackerUncovered
		}
	}
	if !participates {
		// Staying out: both sides realize zero.
		s.DefenderUtility = 0
		s.AttackerUtility = 0
		return s, true, nil
	}
	tol := 1e-9 * (math.Abs(pf.AttackerCovered) + pf.AttackerUncovered)
	if attacker <= tol {
		// Exactly indifferent: strong-SSE tie-break, attacker stays out.
		s.DefenderUtility = math.Max(0, sol.Objective)
		s.AttackerUtility = 0
		return s, true, nil
	}
	s.DefenderUtility = sol.Objective
	s.AttackerUtility = attacker
	return s, true, nil
}

func TestNSignalTwoEqualsBinaryOSSP(t *testing.T) {
	for id := 1; id <= 7; id++ {
		pf := payoff.Table2()[id]
		for _, theta := range []float64{0, 0.05, 0.1, 0.2, 0.5, 1} {
			binary, err := SolveLP(pf, theta)
			if err != nil {
				t.Fatal(err)
			}
			two, err := solveNSignal(pf, theta, 2)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(two.DefenderUtility-binary.DefenderUtility) > 1e-6 {
				t.Fatalf("type %d θ=%g: 2-signal %g vs binary %g",
					id, theta, two.DefenderUtility, binary.DefenderUtility)
			}
		}
	}
}

func TestTwoSignalsSuffice(t *testing.T) {
	// The persuasion-theoretic claim, verified numerically: 3, 4, and 5
	// signal alphabets buy the auditor nothing over the paper's binary
	// warn/silent scheme.
	for _, id := range []int{1, 4, 7} {
		pf := payoff.Table2()[id]
		for _, theta := range []float64{0.03, 0.1, 0.166, 0.4} {
			binary, err := SolveLP(pf, theta)
			if err != nil {
				t.Fatal(err)
			}
			for n := 3; n <= 5; n++ {
				multi, err := solveNSignal(pf, theta, n)
				if err != nil {
					t.Fatal(err)
				}
				if multi.DefenderUtility > binary.DefenderUtility+1e-6 {
					t.Fatalf("type %d θ=%g: %d signals beat binary (%g > %g) — persuasion theory violated",
						id, theta, n, multi.DefenderUtility, binary.DefenderUtility)
				}
				if multi.DefenderUtility < binary.DefenderUtility-1e-6 {
					t.Fatalf("type %d θ=%g: %d signals worse than binary (%g < %g) — superset should match",
						id, theta, n, multi.DefenderUtility, binary.DefenderUtility)
				}
			}
		}
	}
}

func TestNSignalOneSignalIsNoSignaling(t *testing.T) {
	// With a single (silent) signal there is nothing to reveal: the value
	// equals the plain SSE commitment at θ, with participation accounting.
	pf := payoff.Table2()[1]
	for _, theta := range []float64{0.05, 0.1, 0.3} {
		s, err := solveNSignal(pf, theta, 1)
		if err != nil {
			t.Fatal(err)
		}
		var want float64
		if pf.AttackerExpected(theta) <= 0 {
			want = 0
		} else {
			want = pf.DefenderExpected(theta)
		}
		if math.Abs(s.DefenderUtility-want) > 1e-6 {
			t.Fatalf("θ=%g: 1-signal %g, want %g", theta, s.DefenderUtility, want)
		}
	}
}

func TestNSignalValidation(t *testing.T) {
	pf := payoff.Table2()[1]
	if _, err := solveNSignal(pf, -0.1, 2); err == nil {
		t.Error("bad theta should be rejected")
	}
	if _, err := solveNSignal(pf, 0.1, 0); err == nil {
		t.Error("zero signals should be rejected")
	}
	if _, err := solveNSignal(pf, 0.1, maxSignals+1); err == nil {
		t.Error("too many signals should be rejected")
	}
	if _, err := solveNSignal(payoff.Payoff{}, 0.1, 2); err == nil {
		t.Error("invalid payoff should be rejected")
	}
}

func TestNSignalSchemeIsDistribution(t *testing.T) {
	pf := payoff.Table2()[3]
	s, err := solveNSignal(pf, 0.12, 4)
	if err != nil {
		t.Fatal(err)
	}
	total := 0.0
	auditMass := 0.0
	for i := range s.P {
		if s.P[i] < -1e-9 || s.Q[i] < -1e-9 {
			t.Fatalf("negative probability in %+v", s)
		}
		total += s.P[i] + s.Q[i]
		auditMass += s.P[i]
	}
	if math.Abs(total-1) > 1e-7 {
		t.Fatalf("probabilities sum to %g", total)
	}
	if math.Abs(auditMass-0.12) > 1e-7 {
		t.Fatalf("audit marginal %g, want 0.12", auditMass)
	}
	if !s.Proceeds[0] {
		t.Fatal("signal 0 (silent) must always proceed")
	}
}

func TestQuickTwoSignalsSufficeRandomPayoffs(t *testing.T) {
	prop := func(dc, du, ac, au, rawTheta float64) bool {
		clean := func(x, lo, hi float64) float64 {
			v := math.Mod(math.Abs(x), hi-lo)
			if math.IsNaN(v) {
				v = 0
			}
			return lo + v
		}
		pf := payoff.Payoff{
			DefenderCovered:   clean(dc, 0, 500),
			DefenderUncovered: -clean(du, 0.01, 500),
			AttackerCovered:   -clean(ac, 0.01, 2000),
			AttackerUncovered: clean(au, 0.01, 500),
		}
		theta := clean(rawTheta, 0, 1)
		binary, err1 := SolveLP(pf, theta)
		three, err2 := solveNSignal(pf, theta, 3)
		if err1 != nil || err2 != nil {
			return false
		}
		return math.Abs(three.DefenderUtility-binary.DefenderUtility) < 1e-5*(1+math.Abs(binary.DefenderUtility))
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
