package signaling

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"github.com/auditgames/sag/internal/lp"
	"github.com/auditgames/sag/internal/payoff"
)

func defSide() DefenderSide { return DefenderSide{Covered: 100, Uncovered: -400} }

func TestBayesianSingleTypeReducesToOSSP(t *testing.T) {
	// With one attacker type, the Bayesian solver must reproduce the plain
	// OSSP across the θ range.
	pf := payoff.Table2()[1]
	types := []AttackerType{{Prior: 1, Covered: pf.AttackerCovered, Uncovered: pf.AttackerUncovered}}
	def := DefenderSide{Covered: pf.DefenderCovered, Uncovered: pf.DefenderUncovered}
	for theta := 0.0; theta <= 1.0001; theta += 0.1 {
		th := math.Min(theta, 1)
		b, err := SolveBayesian(def, types, th)
		if err != nil {
			t.Fatal(err)
		}
		s, err := SolveLP(pf, th)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(b.DefenderUtility-s.DefenderUtility) > 1e-6 {
			t.Fatalf("θ=%.1f: Bayesian %g vs OSSP %g", th, b.DefenderUtility, s.DefenderUtility)
		}
	}
}

func TestBayesianValidation(t *testing.T) {
	def := defSide()
	good := []AttackerType{{Prior: 1, Covered: -2000, Uncovered: 400}}
	cases := []struct {
		name  string
		def   DefenderSide
		types []AttackerType
		theta float64
	}{
		{"no types", def, nil, 0.1},
		{"bad theta", def, good, 1.5},
		{"NaN theta", def, good, math.NaN()},
		{"bad prior", def, []AttackerType{{Prior: 0, Covered: -1, Uncovered: 1}}, 0.1},
		{"priors not summing", def, []AttackerType{{Prior: 0.4, Covered: -1, Uncovered: 1}}, 0.1},
		{"bad covered sign", def, []AttackerType{{Prior: 1, Covered: 1, Uncovered: 1}}, 0.1},
		{"bad uncovered sign", def, []AttackerType{{Prior: 1, Covered: -1, Uncovered: -1}}, 0.1},
		{"bad defender", DefenderSide{Covered: -1, Uncovered: -1}, good, 0.1},
	}
	for _, c := range cases {
		if _, err := SolveBayesian(c.def, c.types, c.theta); err == nil {
			t.Errorf("%s: want error", c.name)
		}
	}
}

func TestBayesianSchemeIsDistribution(t *testing.T) {
	def := defSide()
	types := []AttackerType{
		{Prior: 0.6, Covered: -2000, Uncovered: 400},
		{Prior: 0.4, Covered: -500, Uncovered: 900}, // bolder type
	}
	for _, theta := range []float64{0, 0.05, 0.1, 0.2, 0.5, 1} {
		s, err := SolveBayesian(def, types, theta)
		if err != nil {
			t.Fatal(err)
		}
		total := s.P1 + s.Q1 + s.P0 + s.Q0
		if math.Abs(total-1) > 1e-7 {
			t.Fatalf("θ=%g: probabilities sum to %g", theta, total)
		}
		if math.Abs(s.P1+s.P0-theta) > 1e-7 {
			t.Fatalf("θ=%g: marginal audit %g", theta, s.P1+s.P0)
		}
		for _, v := range []float64{s.P1, s.Q1, s.P0, s.Q0} {
			if v < -1e-9 || v > 1+1e-9 {
				t.Fatalf("θ=%g: probability %g out of range", theta, v)
			}
		}
		if len(s.QuitsAfterWarn) != 2 || len(s.Participates) != 2 || len(s.TypeUtilities) != 2 {
			t.Fatal("per-type slices sized wrong")
		}
	}
}

func TestBayesianBestResponseConsistency(t *testing.T) {
	// The reported pattern must be consistent with the scheme: quitting
	// types have non-positive warn-branch utility, proceeding types
	// non-negative; participating types have non-negative overall utility.
	def := defSide()
	types := []AttackerType{
		{Prior: 0.5, Covered: -2000, Uncovered: 400},
		{Prior: 0.3, Covered: -300, Uncovered: 800},
		{Prior: 0.2, Covered: -5000, Uncovered: 200},
	}
	for _, theta := range []float64{0.02, 0.08, 0.15, 0.3} {
		s, err := SolveBayesian(def, types, theta)
		if err != nil {
			t.Fatal(err)
		}
		for k, at := range types {
			warnU := s.P1*at.Covered + s.Q1*at.Uncovered
			if s.QuitsAfterWarn[k] && warnU > 1e-6 {
				t.Fatalf("θ=%g type %d: quits but warn utility %g > 0", theta, k, warnU)
			}
			if !s.QuitsAfterWarn[k] && warnU < -1e-6 {
				t.Fatalf("θ=%g type %d: proceeds but warn utility %g < 0", theta, k, warnU)
			}
			a := s.P0*at.Covered + s.Q0*at.Uncovered
			if !s.QuitsAfterWarn[k] {
				a += warnU
			}
			if s.Participates[k] && a < -1e-6 {
				t.Fatalf("θ=%g type %d: participates at utility %g", theta, k, a)
			}
			if !s.Participates[k] && a > 1e-6 {
				t.Fatalf("θ=%g type %d: stays out despite utility %g", theta, k, a)
			}
			if s.Participates[k] && math.Abs(s.TypeUtilities[k]-a) > 1e-6 {
				t.Fatalf("θ=%g type %d: reported utility %g vs computed %g", theta, k, s.TypeUtilities[k], a)
			}
		}
	}
}

func TestBayesianDominatesWorstCaseSingleType(t *testing.T) {
	// Facing a mixture, the Bayesian optimum is at least the prior-weighted
	// value of any fixed feasible scheme — in particular the scheme
	// optimized for the timid type alone. Sanity-check the direction.
	def := defSide()
	timid := AttackerType{Prior: 0.7, Covered: -2000, Uncovered: 400}
	bold := AttackerType{Prior: 0.3, Covered: -300, Uncovered: 900}
	theta := 0.1
	b, err := SolveBayesian(def, []AttackerType{timid, bold}, theta)
	if err != nil {
		t.Fatal(err)
	}
	// Evaluate the timid-only OSSP scheme against the mixture.
	pfTimid := payoff.Payoff{
		DefenderCovered: def.Covered, DefenderUncovered: def.Uncovered,
		AttackerCovered: timid.Covered, AttackerUncovered: timid.Uncovered,
	}
	s, err := SolveLP(pfTimid, theta)
	if err != nil {
		t.Fatal(err)
	}
	mixture := 0.0
	for _, at := range []AttackerType{timid, bold} {
		warnU := s.P1*at.Covered + s.Q1*at.Uncovered
		attackU := s.P0*at.Covered + s.Q0*at.Uncovered
		if warnU > 0 {
			attackU += warnU
		}
		if attackU <= 0 {
			continue // this type stays out → contributes 0
		}
		contrib := s.P0*def.Covered + s.Q0*def.Uncovered
		if warnU > 0 {
			contrib += s.P1*def.Covered + s.Q1*def.Uncovered
		}
		mixture += at.Prior * contrib
	}
	if b.DefenderUtility < mixture-1e-6 {
		t.Fatalf("Bayesian optimum %g below fixed-scheme value %g", b.DefenderUtility, mixture)
	}
}

func TestQuickBayesianNeverBelowNoSignal(t *testing.T) {
	// Not signaling at all (everything silent) is always feasible, so the
	// Bayesian optimum is bounded below by the no-signal mixture value.
	def := defSide()
	prop := func(c1, u1, c2, u2, pr, rawTheta float64) bool {
		clean := func(x, lo, hi float64) float64 {
			v := math.Mod(math.Abs(x), hi-lo)
			if math.IsNaN(v) {
				v = 0
			}
			return lo + v
		}
		t1 := AttackerType{Covered: -clean(c1, 1, 5000), Uncovered: clean(u1, 1, 1000)}
		t2 := AttackerType{Covered: -clean(c2, 1, 5000), Uncovered: clean(u2, 1, 1000)}
		t1.Prior = clean(pr, 0.05, 0.95)
		t2.Prior = 1 - t1.Prior
		theta := clean(rawTheta, 0, 1)
		b, err := SolveBayesian(def, []AttackerType{t1, t2}, theta)
		if err != nil {
			return false
		}
		// No-signal value: each type attacks iff θ-coverage leaves him
		// positive utility.
		noSignal := 0.0
		for _, at := range []AttackerType{t1, t2} {
			if theta*at.Covered+(1-theta)*at.Uncovered > 0 {
				noSignal += at.Prior * (theta*def.Covered + (1-theta)*def.Uncovered)
			}
		}
		return b.DefenderUtility >= noSignal-1e-6
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// bayesianPatternLP is the differential oracle for SolveBayesian: the 4^m
// enumeration the library used before the vertex walk — every joint
// best-response pattern (which types a warning persuades to quit, which
// attack at all) enforced as sign rows of one LP over (p1, q1, p0, q0), best
// feasible pattern kept. It reports the optimal value only; m ≤ 5 keeps it
// at a thousand solves.
func bayesianPatternLP(t testing.TB, def DefenderSide, types []AttackerType, theta float64) float64 {
	t.Helper()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	m := len(types)
	best := math.Inf(-1)
	for quitMask := 0; quitMask < 1<<m; quitMask++ {
		for partMask := 0; partMask < 1<<m; partMask++ {
			prob := lp.New(lp.Maximize, 4) // p1, q1, p0, q0
			for i := 0; i < 4; i++ {
				must(prob.SetBounds(i, 0, 1))
			}
			must(prob.AddConstraint([]float64{1, 0, 1, 0}, lp.EQ, theta))
			must(prob.AddConstraint([]float64{0, 1, 0, 1}, lp.EQ, 1-theta))
			obj := make([]float64, 4)
			for k, at := range types {
				quits := quitMask&(1<<k) != 0
				participates := partMask&(1<<k) != 0
				// Persuasion sign: warn-branch utility p1·U_ac + q1·U_au.
				rel := lp.GE
				if quits {
					rel = lp.LE
				}
				must(prob.AddConstraint([]float64{at.Covered, at.Uncovered, 0, 0}, rel, 0))
				// Participation sign on the overall attack utility.
				aRow := []float64{0, 0, at.Covered, at.Uncovered}
				if !quits {
					aRow[0], aRow[1] = at.Covered, at.Uncovered
				}
				rel = lp.LE
				if participates {
					rel = lp.GE
				}
				must(prob.AddConstraint(aRow, rel, 0))
				// A participating type exposes the auditor to the silent
				// branch always and to the warn branch when he proceeds.
				if participates {
					obj[2] += at.Prior * def.Covered
					obj[3] += at.Prior * def.Uncovered
					if !quits {
						obj[0] += at.Prior * def.Covered
						obj[1] += at.Prior * def.Uncovered
					}
				}
			}
			must(prob.SetObjective(obj))
			sol, err := lp.Solve(prob)
			must(err)
			if sol.Status == lp.Optimal && sol.Objective > best {
				best = sol.Objective
			}
		}
	}
	return best
}

// checkBayesian is the property behind FuzzBayesianOSSP and its seeded unit
// form. Oracle-free first: the scheme is a distribution with marginal θ,
// every reported response is one the type's own incentives allow, and the
// reported utility is what those responses pay. Then the differential: the
// 4^m-LP oracle's optimum to 1e-6.
func checkBayesian(t testing.TB, def DefenderSide, types []AttackerType, theta float64) {
	t.Helper()
	s, err := SolveBayesian(def, types, theta)
	if err != nil {
		t.Fatalf("SolveBayesian(%+v, %+v, %g): %v", def, types, theta, err)
	}
	fail := func(format string, args ...any) {
		t.Helper()
		t.Errorf("defender %+v types %+v θ=%v\n closed form %+v\n "+format, append([]any{def, types, theta, s}, args...)...)
	}
	if err := (Scheme{P1: s.P1, Q1: s.Q1, P0: s.P0, Q0: s.Q0}).Validate(theta); err != nil {
		fail("%v", err)
	}
	want := 0.0
	for k, at := range types {
		tol := 2e-9 * (at.Uncovered - at.Covered)
		warn := s.P1*at.Covered + s.Q1*at.Uncovered
		attack := s.P0*at.Covered + s.Q0*at.Uncovered
		if s.QuitsAfterWarn[k] && warn > tol || !s.QuitsAfterWarn[k] && warn < -tol {
			fail("type %d: quits=%v at warn utility %g", k, s.QuitsAfterWarn[k], warn)
		}
		if !s.QuitsAfterWarn[k] {
			attack += warn
		}
		if s.Participates[k] && attack < -tol || !s.Participates[k] && attack > tol {
			fail("type %d: participates=%v at attack utility %g", k, s.Participates[k], attack)
		}
		if !s.Participates[k] {
			continue
		}
		want += at.Prior * (s.P0*def.Covered + s.Q0*def.Uncovered)
		if !s.QuitsAfterWarn[k] {
			want += at.Prior * (s.P1*def.Covered + s.Q1*def.Uncovered)
		}
	}
	spread := math.Max(1, def.Covered-def.Uncovered)
	if d := math.Abs(s.DefenderUtility - want); d > 1e-9*spread {
		fail("reported utility off what the reported responses pay (%g) by %g", want, d)
	}
	if o := bayesianPatternLP(t, def, types, theta); math.Abs(s.DefenderUtility-o) > 1e-6*spread {
		fail("defender utility differs from the pattern LPs' %g by %g", o, s.DefenderUtility-o)
	}
}

// bayesianSeeds is FuzzBayesianOSSP's corpus of two-type priors, and the
// instances the unit test always runs: θ at both ends and on a type's
// deterrence threshold, U_dc = 0, two identical types, a lopsided prior.
func bayesianSeeds(each func(dc, du, c1, u1, c2, u2, prior, theta float64)) {
	for _, theta := range []float64{0, 0.1, 1.0 / 6, 0.75, 1} {
		for _, dc := range []float64{0, 100} {
			each(dc, -400, -2000, 400, -300, 900, 0.8, theta)
			each(dc, -400, -2000, 400, -2000, 400, 0.5, theta)
			each(dc, -50, -100, 10, -10, 100, 0.01, theta)
		}
	}
}

// TestBayesianMatchesPatternLPs is the seeded unit form of FuzzBayesianOSSP:
// the corpus, then 20 000 random priors over one to five types, one draw in
// eight with θ at 0 or 1 and one in eight with U_dc = 0. Five types cost the
// oracle 1024 LPs a draw, so of every 256 draws one has five types, four
// have four, 32 three, 120 two and 99 one.
func TestBayesianMatchesPatternLPs(t *testing.T) {
	bayesianSeeds(func(dc, du, c1, u1, c2, u2, prior, theta float64) {
		checkBayesian(t, DefenderSide{Covered: dc, Uncovered: du},
			[]AttackerType{{prior, c1, u1}, {1 - prior, c2, u2}}, theta)
	})
	trials := 20000
	if testing.Short() {
		trials = 2000
	}
	rng := rand.New(rand.NewSource(20204))
	draw := func() float64 { return 10 * math.Pow(10, 2*rng.Float64()-1) }
	for i := 0; i < trials && !t.Failed(); i++ {
		m := 1
		for _, atLeast := range []int{99, 219, 251, 255} {
			if i%256 >= atLeast {
				m++
			}
		}
		types := make([]AttackerType, m)
		sum := 0.0
		for k := range types {
			types[k] = AttackerType{Prior: 0.05 + rng.Float64(), Covered: -draw(), Uncovered: draw()}
			sum += types[k].Prior
		}
		for k := range types {
			types[k].Prior /= sum
		}
		def := DefenderSide{Covered: draw(), Uncovered: -draw()}
		theta := rng.Float64()
		switch i % 8 {
		case 3:
			theta = float64(i / 8 % 2)
		case 5:
			def.Covered = 0
		}
		checkBayesian(t, def, types, theta)
	}
}

// TestBayesianManyTypes solves a 32-type prior — 4^32 patterns to the
// enumeration this replaced, which refused more than eight types — and
// holds it to the oracle-free half of the check.
func TestBayesianManyTypes(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	types := make([]AttackerType, 32)
	for k := range types {
		types[k] = AttackerType{Prior: 1.0 / 32, Covered: -100 - 3000*rng.Float64(), Uncovered: 100 + 900*rng.Float64()}
	}
	start := time.Now()
	s, err := SolveBayesian(defSide(), types, 0.12)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("32 types solved in %v: utility %g", time.Since(start), s.DefenderUtility)
	// No signaling at all is one of the points scored.
	silent := 0.0
	for _, at := range types {
		if 0.12*at.Covered+0.88*at.Uncovered > 0 {
			silent += at.Prior * (0.12*100 - 0.88*400)
		}
	}
	if s.DefenderUtility < silent-1e-9 {
		t.Fatalf("utility %g below the no-signaling value %g", s.DefenderUtility, silent)
	}
	for k, at := range types {
		warn := s.P1*at.Covered + s.Q1*at.Uncovered
		if s.QuitsAfterWarn[k] && warn > 1e-5 || !s.QuitsAfterWarn[k] && warn < -1e-5 {
			t.Fatalf("type %d: quits=%v at warn utility %g", k, s.QuitsAfterWarn[k], warn)
		}
	}
}

// FuzzBayesianOSSP drives checkBayesian with arbitrary two-type priors folded
// into the sign pattern SolveBayesian validates. Magnitudes stay within four
// decades of one another, where the simplex oracle's absolute 1e-9 tolerances
// still resolve the 1e-6 comparison.
func FuzzBayesianOSSP(f *testing.F) {
	bayesianSeeds(func(dc, du, c1, u1, c2, u2, prior, theta float64) { f.Add(dc, du, c1, u1, c2, u2, prior, theta) })
	f.Fuzz(func(t *testing.T, dc, du, c1, u1, c2, u2, prior, theta float64) {
		for _, v := range []float64{du, c1, u1, c2, u2} {
			if a := math.Abs(v); !(a >= 1 && a <= 1e4) {
				t.Skip("outside the range the oracle resolves")
			}
		}
		if !(math.Abs(dc) <= 1e4) || !(prior >= 0.01 && prior <= 0.99) || !(theta >= 0 && theta <= 1) {
			t.Skip("not a valid instance")
		}
		checkBayesian(t, DefenderSide{Covered: math.Abs(dc), Uncovered: -math.Abs(du)}, []AttackerType{
			{Prior: prior, Covered: -math.Abs(c1), Uncovered: math.Abs(u1)},
			{Prior: 1 - prior, Covered: -math.Abs(c2), Uncovered: math.Abs(u2)},
		}, theta)
	})
}
