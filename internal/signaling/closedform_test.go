package signaling

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"strconv"
	"testing"

	"github.com/auditgames/sag/internal/lp"
	"github.com/auditgames/sag/internal/payoff"
)

// lp3 states LP (3) over (p1, q1, p0, q0) a second time, independently of
// solveSignalingLP, so Problem.Violation can say whether the simplex
// oracle's answer is a feasible point at all.
func lp3(pf payoff.Payoff, theta float64) *lp.Problem {
	prob := lp.New(lp.Maximize, 4)
	must := func(err error) {
		if err != nil {
			panic(err)
		}
	}
	for i := 0; i < 4; i++ {
		must(prob.SetBounds(i, 0, 1))
	}
	must(prob.AddConstraint([]float64{pf.AttackerCovered, pf.AttackerUncovered, 0, 0}, lp.LE, 0))
	must(prob.AddConstraint([]float64{0, 0, pf.AttackerCovered, pf.AttackerUncovered}, lp.GE, 0))
	must(prob.AddConstraint([]float64{1, 0, 1, 0}, lp.EQ, theta))
	must(prob.AddConstraint([]float64{0, 1, 0, 1}, lp.EQ, 1-theta))
	return prob
}

// agree is the differential tolerance: absolute on the four probabilities,
// relative to the payoff spread on the two utilities.
const agree = 1e-6

// simplexTol is internal/lp's feasibility tolerance: rows, bounds and
// reduced costs below it are zero to the oracle.
const simplexTol = 1e-9

// checkClosedForm is the property behind FuzzClosedFormOSSP and its seeded
// unit form. It first holds Solve to LP (3) itself — a distribution with
// marginal θ, persuasion and participation rows, Theorems 2, 3 and 4 — with
// no oracle involved, then compares it with SolveLP wherever the simplex
// returned a feasible point. It reports whether the oracle resolved this
// instance finely enough for the comparison to mean "equal to 1e-6".
//
// SolveLP is exact only up to its own tolerances: its min-p0 second solve
// accepts any point within 1e-10·(1+|obj|) of the optimum and the simplex
// any row within simplexTol. How far its answer then sits from the exact
// vertex follows from writing a feasible point's objective deficit as
//
//	|U_du|·(q0 − tight(p0)) + |slope|·|p0 − p0*|,  tight(p0) = (max(β,0) + p0·|U_ac|)/U_au,
//
// both terms non-negative: a point with deficit e has |Δp0| ≤ e/|slope|,
// q0 − tight(p0) ≤ e/|U_du|, and an attacker utility at most U_au·e/|U_du|
// above max(β,0). Deficit and row violation are measured on the oracle's
// point, not assumed, so a flat objective (slope ≈ 0, where any p0 is as
// good as any other), a tiny payoff scale or a lopsided U_au/|U_ac| widens
// the tolerance by exactly what the oracle could not tell apart, and a
// feasible oracle point that beats the closed form always fails.
func checkClosedForm(t testing.TB, pf payoff.Payoff, theta float64) (resolved bool) {
	t.Helper()
	s, err := Solve(pf, theta)
	if err != nil {
		t.Fatalf("Solve(%+v, %g): %v", pf, theta, err)
	}
	ac, au, dc, du := -pf.AttackerCovered, pf.AttackerUncovered, pf.DefenderCovered, -pf.DefenderUncovered
	attSpread, defSpread := ac+au, dc+du
	oracle := "" // the simplex's answer, once there is one to print
	fail := func(format string, args ...any) {
		t.Helper()
		t.Errorf("payoff %+v θ=%v\n closed form %+v%s\n "+format, append([]any{pf, theta, s, oracle}, args...)...)
	}

	// Solve and SolveLP both read an attacker utility within stayOut of zero
	// as zero, so that is how far a row may sit on the wrong side of it.
	stayOut := 1e-9 * attSpread
	rowTol := stayOut + 1e-12*attSpread
	if err := s.Validate(theta); err != nil {
		fail("%v", err)
	}
	if v := s.P1*pf.AttackerCovered + s.Q1*au; v > rowTol {
		fail("persuasion row p1·U_ac + q1·U_au = %g > 0", v)
	}
	if v := s.P0*pf.AttackerCovered + s.Q0*au; v < -rowTol {
		fail("participation row p0·U_ac + q0·U_au = %g < 0", v)
	}
	if !(dc*au > ac*du) && s.P0 != 0 {
		// Theorem 3's condition, or the exact tie LP (3) breaks toward p0 = 0.
		fail("Theorem 3: p0 = %g though silent auditing does not pay", s.P0)
	}
	beta := pf.AttackerExpected(theta)
	if d := math.Abs(s.AttackerUtility - math.Max(beta, 0)); d > 2*stayOut {
		fail("Theorem 4: attacker utility off max(β,0) = %g by %g", math.Max(beta, 0), d)
	}
	sse := 0.0
	if beta > stayOut {
		sse = pf.DefenderExpected(theta)
	}
	if s.DefenderUtility < sse-1e-9*defSpread {
		fail("Theorem 2: below the no-signaling utility %g", sse)
	}
	if s.Deterred != (beta <= stayOut) || (s.Deterred && (s.DefenderUtility != 0 || s.AttackerUtility != 0)) {
		fail("deterrence: β = %g, tolerance %g", beta, stayOut)
	}

	o, err := SolveLP(pf, theta)
	if err != nil {
		return false
	}
	v, err := lp3(pf, theta).Violation([]float64{o.P1, o.Q1, o.P0, o.Q0})
	if err != nil || v > simplexTol {
		return false // the oracle left its own feasible region
	}
	objective := func(x Scheme) float64 { return x.P0*dc - x.Q0*du }
	// Rows loosened by v let p0 past its cap by slackP and q0 under its tight
	// value by slackQ; e is the oracle's measured deficit plus what that
	// slack is worth plus the round-off of measuring it.
	slackP := v * (1 + (1+au)/ac)
	slackQ := v * (1 + 1/au)
	e := math.Max(objective(s)-objective(o), 0) + dc*slackP + du*slackQ + 1e-13*defSpread
	slope := math.Abs(dc*au-ac*du) / au
	reachP := e/slope + slackP
	reachQ := e/du + slackQ + ac/au*reachP
	reachAtt := v + au*e/du
	oracle = fmt.Sprintf("\n simplex     %+v", o)

	if d := objective(o) - objective(s); d > agree/2*defSpread+e {
		fail("a feasible point beats the closed form by %g", d)
	}
	if d := math.Max(math.Abs(s.P0-o.P0), math.Abs(s.P1-o.P1)); d > agree/2+reachP {
		fail("p differs by %g (oracle resolves %g)", d, reachP)
	}
	if d := math.Max(math.Abs(s.Q0-o.Q0), math.Abs(s.Q1-o.Q1)); d > agree/2+reachQ {
		fail("q differs by %g (oracle resolves %g)", d, reachQ)
	}
	// The oracle's attacker utility sits within reachAtt of max(β,0); only
	// closer than that to the stay-out tolerance may it call Deterred
	// differently.
	if math.Abs(math.Max(beta, 0)-stayOut) > reachAtt {
		if s.Deterred != o.Deterred {
			fail("Deterred differs")
		}
		if d := math.Abs(s.DefenderUtility - o.DefenderUtility); d > agree/2*defSpread+e {
			fail("defender utility differs by %g", d)
		}
		if d := math.Abs(s.AttackerUtility - o.AttackerUtility); d > agree/2*attSpread+reachAtt {
			fail("attacker utility differs by %g", d)
		}
	}
	return reachP <= agree/2 && reachQ <= agree/2 && e <= agree/2*defSpread && reachAtt <= agree/2*attSpread
}

// closedFormSeeds is the corpus the fuzz target starts from and the unit
// test always runs: Table 2, θ at 0, 1 and the deterrence threshold, slopes
// one ulp either side of the tie, and common scales from 1e-12 to 1e12 of a
// payoff on each side of the Theorem 3 condition (the check decides per
// instance how much of that the simplex still resolves).
func closedFormSeeds(each func(pf payoff.Payoff, theta float64)) {
	add := func(pf payoff.Payoff, thetas ...float64) {
		for _, th := range thetas {
			each(pf, th)
		}
	}
	edges := func(pf payoff.Payoff) []float64 {
		th := pf.DeterrenceThreshold()
		return []float64{0, 1, th, math.Nextafter(th, 0), math.Nextafter(th, 1), th / 2, (1 + th) / 2}
	}
	table2 := payoff.Table2()
	for _, pf := range table2[1:] {
		add(pf, edges(pf)...)
	}
	// U_dc·U_au = U_ac·U_du = 6: the objective is flat in p0.
	tie := payoff.Payoff{DefenderCovered: 2, DefenderUncovered: -2, AttackerCovered: -3, AttackerUncovered: 3}
	for _, dc := range []float64{2, math.Nextafter(2, 3), math.Nextafter(2, 1)} {
		pf := tie
		pf.DefenderCovered = dc
		add(pf, edges(pf)...)
	}
	// A penalty eleven decades above the gain: β > 0 sits inside the
	// deterrence tolerance at every θ.
	add(payoff.Payoff{DefenderCovered: 1e-10, DefenderUncovered: -4e-10, AttackerCovered: -39, AttackerUncovered: 4e-10}, 0, 1e-12, 0.5)
	inside := payoff.Table2()[1]
	outside := payoff.Payoff{DefenderCovered: 600, DefenderUncovered: -50, AttackerCovered: -100, AttackerUncovered: 10}
	for exp := -12; exp <= 12; exp += 3 {
		k := math.Pow(10, float64(exp))
		for _, pf := range []payoff.Payoff{inside, outside} {
			pf.DefenderCovered *= k
			pf.DefenderUncovered *= k
			pf.AttackerCovered *= k
			pf.AttackerUncovered *= k
			add(pf, edges(pf)...)
		}
	}
}

// TestClosedFormMatchesLPOnRandomPayoffs is the seeded unit form of
// FuzzClosedFormOSSP: the corpus, then random sign-valid payoffs — three in
// four with every utility log-uniform over Table 2's few decades, one in four
// over 1e-6…1e6 where the simplex resolves less. At least 100 000 of them
// (SAG_OSSP_TRIALS overrides the draw count) must be resolved by the oracle
// to 1e-6, 40 % of those outside the Theorem 3 regime.
func TestClosedFormMatchesLPOnRandomPayoffs(t *testing.T) {
	closedFormSeeds(func(pf payoff.Payoff, theta float64) { checkClosedForm(t, pf, theta) })
	trials := 160000
	if testing.Short() {
		trials = 16000
	}
	if v := os.Getenv("SAG_OSSP_TRIALS"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil {
			t.Fatalf("SAG_OSSP_TRIALS: %v", err)
		}
		trials = n
	}
	rng := rand.New(rand.NewSource(20201))
	resolved, outside := 0, 0
	for i := 0; i < trials && !t.Failed(); i++ {
		decades := 1.5
		if i%4 == 0 {
			decades = 6
		}
		draw := func() float64 { return 100 * math.Pow(10, (2*rng.Float64()-1)*decades) }
		pf := payoff.Payoff{DefenderCovered: draw(), DefenderUncovered: -draw(), AttackerCovered: -draw(), AttackerUncovered: draw()}
		if checkClosedForm(t, pf, rng.Float64()) {
			resolved++
			if !pf.SatisfiesTheorem3() {
				outside++
			}
		}
	}
	t.Logf("%d draws: %d resolved to %g by the oracle, %d of those outside the Theorem 3 regime", trials, resolved, agree, outside)
	if want := trials * 5 / 8; resolved < want {
		t.Errorf("oracle resolved %d of %d draws, want ≥ %d", resolved, trials, want)
	}
	if 10*outside < 4*resolved {
		t.Errorf("only %d of %d resolved draws violate the Theorem 3 condition, want ≥ 40%%", outside, resolved)
	}
}

// FuzzClosedFormOSSP drives checkClosedForm with arbitrary payoffs. The
// inputs are folded into payoff.Validate's sign pattern; magnitudes whose
// pairwise products leave float64's normal range are skipped, since there
// the sign of U_dc·U_au − U_ac·U_du is round-off on either solver.
func FuzzClosedFormOSSP(f *testing.F) {
	closedFormSeeds(func(pf payoff.Payoff, theta float64) {
		f.Add(pf.DefenderCovered, pf.DefenderUncovered, pf.AttackerCovered, pf.AttackerUncovered, theta)
	})
	f.Fuzz(func(t *testing.T, dc, du, ac, au, theta float64) {
		pf := payoff.Payoff{
			DefenderCovered:   math.Abs(dc),
			DefenderUncovered: -math.Abs(du),
			AttackerCovered:   -math.Abs(ac),
			AttackerUncovered: math.Abs(au),
		}
		for _, v := range []float64{dc, du, ac, au} {
			if a := math.Abs(v); a != 0 && (a < 1e-150 || a > 1e150) {
				t.Skip("payoff products would leave the normal range")
			}
		}
		if pf.Validate() != nil || !(theta >= 0 && theta <= 1) {
			t.Skip("not a valid instance")
		}
		checkClosedForm(t, pf, theta)
	})
}

// theorem2Holds checks the paper's Theorem 2 on a concrete instance: the
// auditor's OSSP utility is never worse than the SSE utility at the same
// marginal coverage θ. sseUtility must account for attacker participation
// (0 when the attack is deterred at coverage θ).
func theorem2Holds(pf payoff.Payoff, theta float64, tol float64) (bool, error) {
	s, err := SolveLP(pf, theta)
	if err != nil {
		return false, err
	}
	var sse float64
	if pf.AttackerExpected(theta) < 0 {
		sse = 0 // attacker would not attack even without signaling
	} else {
		sse = pf.DefenderExpected(theta)
	}
	return s.DefenderUtility >= sse-tol, nil
}

// theorem3Holds checks that p0 = 0 in the OSSP when the payoff condition
// holds.
func theorem3Holds(pf payoff.Payoff, theta float64, tol float64) (bool, error) {
	if !pf.SatisfiesTheorem3() {
		return true, nil // theorem's hypothesis not met; vacuously true
	}
	s, err := SolveLP(pf, theta)
	if err != nil {
		return false, err
	}
	return math.Abs(s.P0) <= tol, nil
}

// theorem4Holds checks that the attacker's expected utility is identical
// under the OSSP and under the plain SSE at the same θ (both clamped below
// by 0, the stay-out option).
func theorem4Holds(pf payoff.Payoff, theta float64, tol float64) (bool, error) {
	s, err := SolveLP(pf, theta)
	if err != nil {
		return false, err
	}
	sse := math.Max(0, pf.AttackerExpected(theta))
	ossp := math.Max(0, s.AttackerUtility)
	return math.Abs(sse-ossp) <= tol, nil
}
