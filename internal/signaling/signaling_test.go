package signaling

import (
	"math"
	"testing"
	"testing/quick"

	"github.com/auditgames/sag/internal/payoff"
)

func type1() payoff.Payoff { return payoff.Table2()[1] }

func TestClosedFormBetaPositive(t *testing.T) {
	// Type 1, θ = 0.1: β = 0.1·(−2000)+0.9·400 = 160 > 0.
	s, err := Solve(type1(), 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(0.1); err != nil {
		t.Fatal(err)
	}
	if s.Deterred {
		t.Fatal("β > 0 should not be deterred")
	}
	if math.Abs(s.P1-0.1) > 1e-12 || math.Abs(s.P0) > 1e-12 {
		t.Fatalf("want p1=θ, p0=0; got %+v", s)
	}
	wantQ0 := 160.0 / 400.0
	if math.Abs(s.Q0-wantQ0) > 1e-12 {
		t.Fatalf("q0 = %g, want %g", s.Q0, wantQ0)
	}
	// Auditor utility: U_du·β/U_au = −400·160/400 = −160.
	if math.Abs(s.DefenderUtility-(-160)) > 1e-9 {
		t.Fatalf("defender utility = %g, want -160", s.DefenderUtility)
	}
	// Theorem 4: attacker utility equals β.
	if math.Abs(s.AttackerUtility-160) > 1e-9 {
		t.Fatalf("attacker utility = %g, want 160", s.AttackerUtility)
	}
}

func TestClosedFormBetaNonPositive(t *testing.T) {
	// Type 1 deterrence threshold is 1/6; any θ above it gives β ≤ 0.
	th := type1().DeterrenceThreshold()
	s, err := Solve(type1(), th+0.05)
	if err != nil {
		t.Fatal(err)
	}
	if !s.Deterred {
		t.Fatal("θ above threshold should deter")
	}
	if s.DefenderUtility != 0 || s.AttackerUtility != 0 {
		t.Fatal("deterred game should have zero utilities")
	}
	if math.Abs(s.P1-(th+0.05)) > 1e-12 || s.P0 != 0 || s.Q0 != 0 {
		t.Fatalf("deterred scheme should warn with the full distribution: %+v", s)
	}
	if err := s.Validate(th + 0.05); err != nil {
		t.Fatal(err)
	}
}

func TestClosedFormAtExactThreshold(t *testing.T) {
	th := type1().DeterrenceThreshold()
	s, err := Solve(type1(), th)
	if err != nil {
		t.Fatal(err)
	}
	// β = 0 exactly: deterred branch.
	if !s.Deterred {
		t.Fatal("β = 0 should deter")
	}
	if err := s.Validate(th); err != nil {
		t.Fatal(err)
	}
}

func TestClosedFormMatchesLPAcrossTheta(t *testing.T) {
	for id := 1; id <= 7; id++ {
		pf := payoff.Table2()[id]
		for theta := 0.0; theta <= 1.0001; theta += 0.05 {
			th := math.Min(theta, 1)
			cf, err := Solve(pf, th)
			if err != nil {
				t.Fatal(err)
			}
			lps, err := SolveLP(pf, th)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(cf.DefenderUtility-lps.DefenderUtility) > 1e-6 {
				t.Fatalf("type %d θ=%.2f: closed form %g vs LP %g", id, th, cf.DefenderUtility, lps.DefenderUtility)
			}
			if math.Abs(cf.AttackerUtility-lps.AttackerUtility) > 1e-6 {
				t.Fatalf("type %d θ=%.2f: attacker closed form %g vs LP %g", id, th, cf.AttackerUtility, lps.AttackerUtility)
			}
			if cf.Deterred != lps.Deterred {
				t.Fatalf("type %d θ=%.2f: deterred mismatch (cf=%v lp=%v)", id, th, cf.Deterred, lps.Deterred)
			}
		}
	}
}

func TestSolveRejectsInvalidInput(t *testing.T) {
	if _, err := Solve(type1(), -0.1); err == nil {
		t.Error("negative theta should be rejected")
	}
	if _, err := Solve(type1(), 1.1); err == nil {
		t.Error("theta > 1 should be rejected")
	}
	if _, err := Solve(type1(), math.NaN()); err == nil {
		t.Error("NaN theta should be rejected")
	}
	if _, err := Solve(payoff.Payoff{}, 0.5); err == nil {
		t.Error("invalid payoff should be rejected")
	}
}

func TestSchemeAccessors(t *testing.T) {
	s := Scheme{P1: 0.1, Q1: 0.5, P0: 0.05, Q0: 0.35}
	if math.Abs(s.WarnProbability()-0.6) > 1e-12 {
		t.Fatalf("WarnProbability = %g", s.WarnProbability())
	}
	if math.Abs(s.AuditGivenWarn()-0.1/0.6) > 1e-12 {
		t.Fatalf("AuditGivenWarn = %g", s.AuditGivenWarn())
	}
	if math.Abs(s.AuditGivenSilent()-0.05/0.4) > 1e-12 {
		t.Fatalf("AuditGivenSilent = %g", s.AuditGivenSilent())
	}
	if math.Abs(s.MarginalAudit()-0.15) > 1e-12 {
		t.Fatalf("MarginalAudit = %g", s.MarginalAudit())
	}
	zero := Scheme{P0: 0.3, Q0: 0.7}
	if zero.AuditGivenWarn() != 0 {
		t.Fatal("AuditGivenWarn with empty warn branch should be 0")
	}
	empty := Scheme{P1: 0.3, Q1: 0.7}
	if empty.AuditGivenSilent() != 0 {
		t.Fatal("AuditGivenSilent with empty silent branch should be 0")
	}
}

func TestValidateCatchesBrokenSchemes(t *testing.T) {
	if err := (Scheme{P1: 0.5, Q1: 0.6}).Validate(0.5); err == nil {
		t.Error("sum > 1 should fail validation")
	}
	if err := (Scheme{P1: 0.2, Q1: 0.8}).Validate(0.5); err == nil {
		t.Error("marginal mismatch should fail validation")
	}
	if err := (Scheme{P1: -0.1, Q1: 1.1}).Validate(-0.1); err == nil {
		t.Error("negative probability should fail validation")
	}
}

func TestTheoremPredicatesOnTable2(t *testing.T) {
	for id := 1; id <= 7; id++ {
		pf := payoff.Table2()[id]
		for _, theta := range []float64{0, 0.05, 0.1, pf.DeterrenceThreshold(), 0.3, 0.7, 1} {
			if ok, err := theorem2Holds(pf, theta, 1e-7); err != nil || !ok {
				t.Errorf("type %d θ=%g: Theorem 2 violated (err=%v)", id, theta, err)
			}
			if ok, err := theorem3Holds(pf, theta, 1e-7); err != nil || !ok {
				t.Errorf("type %d θ=%g: Theorem 3 violated (err=%v)", id, theta, err)
			}
			if ok, err := theorem4Holds(pf, theta, 1e-6); err != nil || !ok {
				t.Errorf("type %d θ=%g: Theorem 4 violated (err=%v)", id, theta, err)
			}
		}
	}
}

func TestTheorem3VacuousOutsideRegime(t *testing.T) {
	weird := payoff.Payoff{DefenderCovered: 5000, DefenderUncovered: -1, AttackerCovered: -1, AttackerUncovered: 1000}
	ok, err := theorem3Holds(weird, 0.5, 1e-9)
	if err != nil || !ok {
		t.Fatalf("theorem3Holds outside regime = %v, %v; want vacuous true", ok, err)
	}
}

// The strict-improvement question the paper answers empirically: whenever
// θ is below the deterrence threshold but positive, OSSP strictly improves
// on the plain SSE for Table 2 payoffs.
func TestSignalingStrictlyImproves(t *testing.T) {
	for id := 1; id <= 7; id++ {
		pf := payoff.Table2()[id]
		theta := pf.DeterrenceThreshold() * 0.6 // attack not deterred by coverage alone
		s, err := Solve(pf, theta)
		if err != nil {
			t.Fatal(err)
		}
		sse := pf.DefenderExpected(theta)
		if s.DefenderUtility <= sse+1e-9 {
			t.Errorf("type %d: OSSP %g does not strictly improve on SSE %g", id, s.DefenderUtility, sse)
		}
	}
}

func TestQuickOSSPValidAndTheoremsHold(t *testing.T) {
	prop := func(rawTheta float64, id uint8) bool {
		theta := math.Mod(math.Abs(rawTheta), 1)
		if math.IsNaN(theta) {
			theta = 0.2
		}
		pf := payoff.Table2()[1+int(id)%7]
		s, err := SolveLP(pf, theta)
		if err != nil {
			return false
		}
		if s.Validate(theta) != nil {
			return false
		}
		ok2, err2 := theorem2Holds(pf, theta, 1e-6)
		ok3, err3 := theorem3Holds(pf, theta, 1e-6)
		ok4, err4 := theorem4Holds(pf, theta, 1e-6)
		return err2 == nil && err3 == nil && err4 == nil && ok2 && ok3 && ok4
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickOSSPGeneralPayoffs(t *testing.T) {
	// Random payoffs respecting only the sign conventions; the LP must
	// produce a valid scheme and never hand the auditor less than the
	// participation-aware SSE value (Theorem 2 in its general form).
	prop := func(dc, du, ac, au, rawTheta float64) bool {
		clean := func(x, lo, hi float64) float64 {
			v := math.Mod(math.Abs(x), hi-lo)
			if math.IsNaN(v) {
				v = 0
			}
			return lo + v
		}
		pf := payoff.Payoff{
			DefenderCovered:   clean(dc, 0, 1000),
			DefenderUncovered: -clean(du, 0.001, 1000),
			AttackerCovered:   -clean(ac, 0.001, 1000),
			AttackerUncovered: clean(au, 0.001, 1000),
		}
		theta := clean(rawTheta, 0, 1)
		s, err := SolveLP(pf, theta)
		if err != nil {
			return false
		}
		if s.Validate(theta) != nil {
			return false
		}
		var sse float64
		if pf.AttackerExpected(theta) < 0 {
			sse = 0
		} else {
			sse = pf.DefenderExpected(theta)
		}
		return s.DefenderUtility >= sse-1e-6
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}
