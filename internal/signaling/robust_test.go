package signaling

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/auditgames/sag/internal/payoff"
)

func TestRobustZeroMarginEqualsOSSP(t *testing.T) {
	for id := 1; id <= 7; id++ {
		pf := payoff.Table2()[id]
		for _, theta := range []float64{0, 0.05, 0.1, 0.3, 0.7, 1} {
			exact, err := Solve(pf, theta)
			if err != nil {
				t.Fatal(err)
			}
			robust, err := SolveRobust(pf, theta, 0)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(exact.DefenderUtility-robust.DefenderUtility) > 1e-9 {
				t.Fatalf("type %d θ=%g: ε=0 robust %g vs exact %g",
					id, theta, robust.DefenderUtility, exact.DefenderUtility)
			}
		}
	}
}

// solveRobustLP is the differential oracle for SolveRobust: LP (3) on the
// simplex with the hardened persuasion row p1·(U_ac+ε) + q1·(U_au+ε) ≤ 0 and
// the true payoffs everywhere else, min-p0 second solve included. It was the
// library's general-payoff path until the closed form became total; it lives
// here so no production path can reach the simplex for the robust scheme.
func solveRobustLP(pf payoff.Payoff, theta, epsilon float64) (Scheme, error) {
	shifted := pf
	shifted.AttackerCovered += epsilon
	shifted.AttackerUncovered += epsilon
	if shifted.AttackerCovered >= 0 {
		// The row forces the warn branch empty, and the participation row
		// then has no feasible point once β < 0: state the silent commitment
		// directly.
		s := Scheme{P0: theta, Q0: 1 - theta}
		if a := pf.AttackerExpected(theta); a > 1e-9*(math.Abs(pf.AttackerCovered)+pf.AttackerUncovered) {
			s.AttackerUtility = a
			s.DefenderUtility = pf.DefenderExpected(theta)
		} else {
			s.Deterred = true
		}
		return s, nil
	}
	return solveSignalingLP(pf, shifted, theta)
}

// checkRobust is the property behind FuzzRobustOSSP and its seeded unit form.
// Oracle-free first: the scheme is a distribution with marginal θ, the
// persuasion row holds with its margin, the participation row holds, a
// deterred scheme scores zero, and the margin never beats the exact OSSP.
// Then the differential against solveRobustLP: defender utility to 1e-6 of
// the payoff spread, and p0 to 1e-5 wherever the attacker is not deterred. It
// returns the closed form's scheme.
func checkRobust(t testing.TB, pf payoff.Payoff, theta, eps float64) Scheme {
	t.Helper()
	s, err := SolveRobust(pf, theta, eps)
	if err != nil {
		t.Fatalf("SolveRobust(%+v, %g, %g): %v", pf, theta, eps, err)
	}
	ac, au := -pf.AttackerCovered, pf.AttackerUncovered
	attSpread, defSpread := ac+au, pf.DefenderCovered-pf.DefenderUncovered
	fail := func(format string, args ...any) {
		t.Helper()
		t.Errorf("payoff %+v θ=%v ε=%v\n closed form %+v\n "+format, append([]any{pf, theta, eps, s}, args...)...)
	}
	rowTol := 1e-9 * (attSpread + eps)
	if err := s.Validate(theta); err != nil {
		fail("%v", err)
	}
	if v := s.P1*(eps-ac) + s.Q1*(au+eps); v > rowTol {
		fail("persuasion row with margin: p1·(U_ac+ε) + q1·(U_au+ε) = %g > 0", v)
	}
	// A margin past |U_ac| forces the silent commitment, which the
	// participation row may rule out: the attacker then simply stays out.
	if v := s.Q0*au - s.P0*ac; v < -rowTol && eps < ac {
		fail("participation row p0·U_ac + q0·U_au = %g < 0", v)
	}
	if s.Deterred && (s.DefenderUtility != 0 || s.AttackerUtility != 0) {
		fail("deterred scheme with nonzero utilities")
	}
	if prem, err := RobustnessPremium(pf, theta, eps); err != nil || prem < -1e-9*defSpread {
		fail("robustness premium %g, %v", prem, err)
	}
	if eps == 0 {
		exact, _ := Solve(pf, theta)
		if d := math.Abs(exact.DefenderUtility - s.DefenderUtility); d > 1e-9*defSpread {
			fail("ε = 0 differs from Solve by %g", d)
		}
	}

	o, err := solveRobustLP(pf, theta, eps)
	if err != nil {
		fail("oracle: %v", err)
		return s
	}
	if d := math.Abs(s.DefenderUtility - o.DefenderUtility); d > 1e-6*math.Max(1, defSpread) {
		fail("defender utility differs from the LP's %g by %g\n simplex %+v", o.DefenderUtility, d, o)
	}
	if !s.Deterred && !o.Deterred {
		if d := math.Abs(s.P0 - o.P0); d > 1e-5 {
			fail("p0 differs from the LP's by %g\n simplex %+v", d, o)
		}
	}
	return s
}

// robustSeeds is FuzzRobustOSSP's corpus, and the instances the unit test
// always runs: Table 2 across the margin range (zero, small, just under and
// past |U_ac|), a payoff on the other side of the Theorem 3 condition, and
// the ε > 0 counter-example to "p0 = 0 under Theorem 3".
func robustSeeds(each func(pf payoff.Payoff, theta, eps float64)) {
	outside := payoff.Payoff{DefenderCovered: 600, DefenderUncovered: -50, AttackerCovered: -100, AttackerUncovered: 10}
	table2 := payoff.Table2()
	for _, pf := range append(table2[1:], outside) {
		for _, theta := range []float64{0, 0.05, 0.166, pf.DeterrenceThreshold(), 0.5, 1} {
			for _, eps := range []float64{0, 1, 50, -pf.AttackerCovered - 1, -pf.AttackerCovered, -pf.AttackerCovered + 500} {
				each(pf, theta, eps)
			}
		}
	}
	each(payoff.Payoff{DefenderCovered: 4, DefenderUncovered: -5, AttackerCovered: -6, AttackerUncovered: 4}, 0.45, 2)
}

// TestRobustMatchesLPAcrossMargins is the seeded unit form of FuzzRobustOSSP:
// the corpus, then 24 000 random sign-valid payoffs with every utility
// log-uniform over two decades, θ uniform and ε from 0 to twice |U_ac|. At
// least a quarter of the draws must sit outside the Theorem 3 regime, and
// some inside it must have the LP (and the closed form) audit silently — the
// case the old p0 = 0 closed form lost.
func TestRobustMatchesLPAcrossMargins(t *testing.T) {
	robustSeeds(func(pf payoff.Payoff, theta, eps float64) { checkRobust(t, pf, theta, eps) })
	rng := rand.New(rand.NewSource(20203))
	const trials = 24000
	outside, silentAudit := 0, 0
	for i := 0; i < trials && !t.Failed(); i++ {
		draw := func() float64 { return 10 * math.Pow(10, 2*rng.Float64()-1) }
		pf := payoff.Payoff{DefenderCovered: draw(), DefenderUncovered: -draw(), AttackerCovered: -draw(), AttackerUncovered: draw()}
		if i%8 == 0 {
			pf.DefenderCovered = 0
		}
		theta := rng.Float64()
		eps := 0.0
		if i%16 != 1 {
			eps = 2 * -pf.AttackerCovered * rng.Float64() * rng.Float64()
		}
		s := checkRobust(t, pf, theta, eps)
		if !pf.SatisfiesTheorem3() {
			outside++
		} else if s.P0 > 1e-6 && s.P1+s.Q1 > 1e-6 {
			silentAudit++
		}
	}
	t.Logf("%d draws: %d outside the Theorem 3 regime, %d inside it with p0 > 0 beside a live warn branch", trials, outside, silentAudit)
	if 4*outside < trials {
		t.Errorf("only %d of %d draws violate the Theorem 3 condition, want ≥ 25%%", outside, trials)
	}
	if silentAudit == 0 {
		t.Error("no draw inside the Theorem 3 regime audits silently: the differential never left the p0 = 0 case")
	}
}

// FuzzRobustOSSP drives checkRobust with arbitrary payoffs and margins folded
// into payoff.Validate's sign pattern. Magnitudes are kept within three
// decades of one another, where the simplex oracle's absolute 1e-9 tolerances
// still resolve the 1e-6 comparison.
func FuzzRobustOSSP(f *testing.F) {
	robustSeeds(func(pf payoff.Payoff, theta, eps float64) {
		f.Add(pf.DefenderCovered, pf.DefenderUncovered, pf.AttackerCovered, pf.AttackerUncovered, theta, eps)
	})
	f.Fuzz(func(t *testing.T, dc, du, ac, au, theta, eps float64) {
		pf := payoff.Payoff{
			DefenderCovered:   math.Abs(dc),
			DefenderUncovered: -math.Abs(du),
			AttackerCovered:   -math.Abs(ac),
			AttackerUncovered: math.Abs(au),
		}
		eps = math.Abs(eps)
		for _, v := range []float64{du, ac, au} {
			if a := math.Abs(v); !(a >= 1 && a <= 1e3) {
				t.Skip("outside the range the oracle resolves")
			}
		}
		if pf.Validate() != nil || !(pf.DefenderCovered <= 1e3) || !(theta >= 0 && theta <= 1) || !(eps <= 1e4) {
			t.Skip("not a valid instance")
		}
		checkRobust(t, pf, theta, eps)
	})
}

func TestRobustMarginMonotone(t *testing.T) {
	// Hardening the persuasion constraint can only cost the auditor.
	pf := payoff.Table2()[1]
	theta := 0.1
	prev := math.Inf(1)
	for _, eps := range []float64{0, 20, 50, 100, 200, 390} {
		s, err := SolveRobust(pf, theta, eps)
		if err != nil {
			t.Fatal(err)
		}
		if s.DefenderUtility > prev+1e-9 {
			t.Fatalf("ε=%g: utility %g increased from %g", eps, s.DefenderUtility, prev)
		}
		prev = s.DefenderUtility
	}
}

func TestRobustMarginPersuasionHolds(t *testing.T) {
	pf := payoff.Table2()[1]
	for _, eps := range []float64{0, 25, 100, 350} {
		s, err := SolveRobust(pf, 0.1, eps)
		if err != nil {
			t.Fatal(err)
		}
		if w := s.P1 + s.Q1; w > 1e-9 {
			// Conditional warn-branch utility must be ≤ −ε.
			cond := (s.P1*pf.AttackerCovered + s.Q1*pf.AttackerUncovered) / w
			if cond > -eps+1e-6 {
				t.Fatalf("ε=%g: conditional warn utility %g > −ε", eps, cond)
			}
		}
		total := s.P1 + s.Q1 + s.P0 + s.Q0
		if math.Abs(total-1) > 1e-7 {
			t.Fatalf("ε=%g: probabilities sum to %g", eps, total)
		}
	}
}

func TestRobustHugeMarginDegeneratesToSilent(t *testing.T) {
	pf := payoff.Table2()[1] // U_ac = −2000
	s, err := SolveRobust(pf, 0.1, 2500)
	if err != nil {
		t.Fatal(err)
	}
	if s.P1 != 0 || s.Q1 != 0 {
		t.Fatalf("margin beyond |U_ac| should produce a silent-only scheme: %+v", s)
	}
	// Silent-only at θ=0.1 equals the plain SSE value.
	want := pf.DefenderExpected(0.1)
	if math.Abs(s.DefenderUtility-want) > 1e-9 {
		t.Fatalf("degenerate utility %g, want SSE %g", s.DefenderUtility, want)
	}
}

func TestRobustHugeMarginDeterredCase(t *testing.T) {
	// θ above the deterrence threshold with an unpersuadable margin: the
	// silent commitment alone deters, utilities 0.
	pf := payoff.Table2()[1]
	s, err := SolveRobust(pf, 0.5, 2500)
	if err != nil {
		t.Fatal(err)
	}
	if !s.Deterred || s.DefenderUtility != 0 {
		t.Fatalf("want deterred zero-utility scheme, got %+v", s)
	}
}

func TestRobustValidation(t *testing.T) {
	pf := payoff.Table2()[1]
	if _, err := SolveRobust(pf, -0.1, 1); err == nil {
		t.Error("bad theta should be rejected")
	}
	if _, err := SolveRobust(pf, 0.1, -1); err == nil {
		t.Error("negative margin should be rejected")
	}
	if _, err := SolveRobust(pf, 0.1, math.Inf(1)); err == nil {
		t.Error("infinite margin should be rejected")
	}
	if _, err := SolveRobust(payoff.Payoff{}, 0.1, 1); err == nil {
		t.Error("invalid payoff should be rejected")
	}
}

func TestRobustnessPremium(t *testing.T) {
	pf := payoff.Table2()[1]
	p0, err := RobustnessPremium(pf, 0.1, 0)
	if err != nil || math.Abs(p0) > 1e-9 {
		t.Fatalf("zero-margin premium = %g, %v", p0, err)
	}
	p100, err := RobustnessPremium(pf, 0.1, 100)
	if err != nil {
		t.Fatal(err)
	}
	if p100 < 0 {
		t.Fatalf("premium must be nonnegative, got %g", p100)
	}
	p300, err := RobustnessPremium(pf, 0.1, 300)
	if err != nil {
		t.Fatal(err)
	}
	if p300 < p100-1e-9 {
		t.Fatalf("premium should grow with the margin: ε=100 → %g, ε=300 → %g", p100, p300)
	}
}

func TestQuickRobustNeverAboveExact(t *testing.T) {
	prop := func(rawTheta, rawEps float64, id uint8) bool {
		theta := math.Mod(math.Abs(rawTheta), 1)
		eps := math.Mod(math.Abs(rawEps), 500)
		if math.IsNaN(theta) || math.IsNaN(eps) {
			return true
		}
		pf := payoff.Table2()[1+int(id)%7]
		exact, err1 := Solve(pf, theta)
		robust, err2 := SolveRobust(pf, theta, eps)
		if err1 != nil || err2 != nil {
			return false
		}
		return robust.DefenderUtility <= exact.DefenderUtility+1e-7
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}
