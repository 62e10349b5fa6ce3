package payoff

import (
	"math"
	"testing"
	"testing/quick"
)

func TestTable2MatchesPaper(t *testing.T) {
	tab := Table2()
	// Spot-check the exact numbers printed in the paper's Table 2.
	cases := []struct {
		id             int
		dc, du, ac, au float64
	}{
		{1, 100, -400, -2000, 400},
		{2, 150, -500, -2250, 400},
		{3, 150, -600, -2500, 450},
		{4, 300, -800, -2500, 600},
		{5, 400, -1000, -3000, 650},
		{6, 600, -1500, -5000, 700},
		{7, 700, -2000, -6000, 800},
	}
	for _, c := range cases {
		p := tab[c.id]
		if p.DefenderCovered != c.dc || p.DefenderUncovered != c.du ||
			p.AttackerCovered != c.ac || p.AttackerUncovered != c.au {
			t.Errorf("type %d: %+v does not match Table 2", c.id, p)
		}
	}
}

func TestTable2AllValid(t *testing.T) {
	for id, p := range Table2() {
		if id == 0 {
			continue
		}
		if err := p.Validate(); err != nil {
			t.Errorf("type %d: %v", id, err)
		}
		if !p.SatisfiesTheorem3() {
			t.Errorf("type %d: Table 2 payoffs should satisfy the Theorem 3 condition", id)
		}
	}
}

func TestValidateRejectsEachViolation(t *testing.T) {
	good := Payoff{DefenderCovered: 10, DefenderUncovered: -10, AttackerCovered: -10, AttackerUncovered: 10}
	if err := good.Validate(); err != nil {
		t.Fatalf("good payoff rejected: %v", err)
	}
	bad := []Payoff{
		{DefenderCovered: 10, DefenderUncovered: -10, AttackerCovered: 1, AttackerUncovered: 10},   // U_ac >= 0
		{DefenderCovered: 10, DefenderUncovered: -10, AttackerCovered: -10, AttackerUncovered: -1}, // U_au <= 0
		{DefenderCovered: -1, DefenderUncovered: -10, AttackerCovered: -10, AttackerUncovered: 10}, // U_dc < 0
		{DefenderCovered: 10, DefenderUncovered: 1, AttackerCovered: -10, AttackerUncovered: 10},   // U_du >= 0
		{DefenderCovered: math.NaN(), DefenderUncovered: -10, AttackerCovered: -10, AttackerUncovered: 10},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("bad payoff %d accepted: %+v", i, p)
		}
	}
}

func TestExpectedUtilities(t *testing.T) {
	p := Table2()[1]
	// theta = 0: attacker gets U_au, defender U_du.
	if p.AttackerExpected(0) != 400 || p.DefenderExpected(0) != -400 {
		t.Fatal("theta=0 expectations wrong")
	}
	// theta = 1: attacker U_ac, defender U_dc.
	if p.AttackerExpected(1) != -2000 || p.DefenderExpected(1) != 100 {
		t.Fatal("theta=1 expectations wrong")
	}
	// Linear midpoint.
	if got := p.AttackerExpected(0.5); math.Abs(got-(-800)) > 1e-12 {
		t.Fatalf("AttackerExpected(0.5) = %g, want -800", got)
	}
}

func TestDeterrenceThreshold(t *testing.T) {
	p := Table2()[1]
	th := p.DeterrenceThreshold()
	want := 400.0 / 2400.0
	if math.Abs(th-want) > 1e-12 {
		t.Fatalf("threshold = %g, want %g", th, want)
	}
	// At the threshold the attacker is exactly indifferent.
	if got := p.AttackerExpected(th); math.Abs(got) > 1e-9 {
		t.Fatalf("AttackerExpected(threshold) = %g, want 0", got)
	}
}

func TestQuickDeterrenceThresholdInUnitInterval(t *testing.T) {
	prop := func(acRaw, auRaw float64) bool {
		ac := -1 - math.Mod(math.Abs(acRaw), 1e4) // < 0
		au := 1 + math.Mod(math.Abs(auRaw), 1e4)  // > 0
		if math.IsNaN(ac) || math.IsNaN(au) {
			return true
		}
		p := Payoff{DefenderCovered: 1, DefenderUncovered: -1, AttackerCovered: ac, AttackerUncovered: au}
		th := p.DeterrenceThreshold()
		if th <= 0 || th >= 1 {
			return false
		}
		// Monotone deterrence: attacker utility at the threshold is ~0 and
		// strictly negative above it.
		return math.Abs(p.AttackerExpected(th)) < 1e-6*(math.Abs(ac)+au) &&
			p.AttackerExpected(math.Min(1, th+0.01)) < 0
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickExpectedUtilityMonotonicity(t *testing.T) {
	// Attacker utility decreases in coverage; defender utility increases.
	prop := func(t1, t2 float64) bool {
		a := math.Mod(math.Abs(t1), 1)
		b := math.Mod(math.Abs(t2), 1)
		if math.IsNaN(a) || math.IsNaN(b) {
			return true
		}
		lo, hi := math.Min(a, b), math.Max(a, b)
		p := Table2()[4]
		return p.AttackerExpected(hi) <= p.AttackerExpected(lo)+1e-12 &&
			p.DefenderExpected(hi) >= p.DefenderExpected(lo)-1e-12
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
