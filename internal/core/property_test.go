package core

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/auditgames/sag/internal/game"
	"github.com/auditgames/sag/internal/obs"
	"github.com/auditgames/sag/internal/payoff"
)

// randomPayoff draws a payoff satisfying the paper's sign conventions.
// Roughly a third of draws violate the Theorem 3 condition, so both branches
// of the signaling closed form are exercised.
func randomPayoff(rng *rand.Rand) payoff.Payoff {
	p := payoff.Payoff{
		DefenderCovered:   rng.Float64() * 700,
		DefenderUncovered: -(10 + rng.Float64()*2000),
		AttackerCovered:   -(10 + rng.Float64()*6000),
		AttackerUncovered: 10 + rng.Float64()*800,
	}
	if err := p.Validate(); err != nil {
		panic(err)
	}
	return p
}

// TestPropertyTheorems is the randomized engine invariant check of the
// paper's Theorems 1 and 2: across random instances, budgets, and alert
// streams, every non-vacuous OSSP decision must (a) never do worse than the
// no-signaling SSE (OSSPUtility ≥ SSEUtility − ε, Theorem 2) and (b) carry
// a signaling scheme whose marginal audit probability equals the SSE
// marginal θ of the alert's type (Theorem 1).
//
// Trials run across goroutines sharing one metrics registry, so under
// `go test -race` this doubles as the race canary for engine+obs.
func TestPropertyTheorems(t *testing.T) {
	const trials = 48
	seeds := make([]int64, trials)
	root := rand.New(rand.NewSource(20200406)) // fixed seed: reproducible
	for i := range seeds {
		seeds[i] = root.Int63()
	}

	reg := obs.NewRegistry()
	var wg sync.WaitGroup
	errs := make(chan error, trials)
	for _, seed := range seeds {
		eng, rng := theoremTrial(t, seed, 0x5a6, reg)
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := runTheoremTrial(seed, eng, rng); err != nil {
				errs <- err
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// The shared registry must have seen every committed decision.
	snap := reg.Snapshot()
	if got := snap.Counters[MetricDecisionsTotal+`{policy="OSSP"}`]; got == 0 {
		t.Fatal("shared registry recorded no decisions")
	}
}

// theoremTrial draws trial seed's game — one to five random types at
// random audit costs — its rates, some of them zero, and its budget, and
// builds its engine, reporting to reg, with the rand seeded seed^salt. The
// returned rng draws the trial's alerts.
func theoremTrial(t *testing.T, seed, salt int64, reg *obs.Registry) (*Engine, *rand.Rand) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	numTypes := 1 + rng.Intn(5)
	pays := make([]payoff.Payoff, numTypes)
	costs := make([]float64, numTypes)
	for i := range pays {
		pays[i] = randomPayoff(rng)
		costs[i] = 0.5 + rng.Float64()*2.5
	}
	inst, err := game.NewInstance(pays, costs)
	if err != nil {
		t.Fatal(err)
	}
	rates := make([]float64, numTypes)
	for i := range rates {
		if rng.Float64() < 0.15 {
			rates[i] = 0 // exercise the unattackable-type path
		} else {
			rates[i] = rng.Float64() * 40
		}
	}
	return testEngine(t, withInstance(inst), withRates(rates...), withBudget(rng.Float64()*60), withSeed(seed^salt), func(c *Config) {
		c.Metrics = reg
	}), rng
}

func runTheoremTrial(seed int64, eng *Engine, rng *rand.Rand) error {
	for i := 0; i < 12; i++ {
		a := Alert{Type: rng.Intn(eng.inst.NumTypes()), Time: time.Duration(i) * 10 * time.Minute}
		d, err := eng.Process(a)
		if err != nil {
			return err
		}
		if d.Vacuous {
			continue
		}
		// Theorem 2: signaling never hurts. ε covers round-off at the payoff
		// magnitudes drawn above.
		eps := 1e-6 * (1 + math.Abs(d.SSEUtility))
		if d.OSSPUtility < d.SSEUtility-eps {
			return trialErr(seed, i, "Theorem 2 violated: OSSP %g < SSE %g", d.OSSPUtility, d.SSEUtility)
		}
		// Theorem 1: the scheme's marginal audit probability is θ (and the
		// scheme is a valid joint distribution).
		if err := d.Scheme.Validate(d.Theta); err != nil {
			return trialErr(seed, i, "Theorem 1 violated: %v", err)
		}
		if d.BudgetAfter > d.BudgetBefore {
			return trialErr(seed, i, "budget grew: %g -> %g", d.BudgetBefore, d.BudgetAfter)
		}
	}
	return nil
}

// TestPropertyTheorems34 is the randomized engine invariant check of the
// paper's Theorems 3 and 4: across random instances, budgets, and alert
// streams, every non-vacuous OSSP decision must (a) never audit on the
// silent branch (p0 = 0) when the alert type's payoffs satisfy
// U_ac·U_du − U_dc·U_au > 0 (Theorem 3) and (b) leave the rational
// attacker's expected utility exactly where the plain SSE puts it at the
// same marginal coverage θ, both clamped below by the stay-out option
// (Theorem 4 — signaling deters without punishing).
//
// randomPayoff draws violate the Theorem 3 condition roughly a third of the
// time, so decisions flow through both branches of the signaling closed
// form; the test asserts both were actually exercised so a drift in the draw
// distribution cannot silently hollow it out.
func TestPropertyTheorems34(t *testing.T) {
	const trials = 48
	seeds := make([]int64, trials)
	root := rand.New(rand.NewSource(20200613)) // fixed seed: reproducible
	for i := range seeds {
		seeds[i] = root.Int63()
	}

	reg := obs.NewRegistry()
	var wg sync.WaitGroup
	var condMet, condUnmet atomic.Int64
	errs := make(chan error, trials)
	for _, seed := range seeds {
		eng, rng := theoremTrial(t, seed, 0x34, reg)
		wg.Add(1)
		go func() {
			defer wg.Done()
			met, unmet, err := runTheorem34Trial(seed, eng, rng)
			condMet.Add(met)
			condUnmet.Add(unmet)
			if err != nil {
				errs <- err
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	if condMet.Load() == 0 || condUnmet.Load() == 0 {
		t.Fatalf("draws did not exercise both signaling branches: %d decisions with the Theorem 3 condition, %d without",
			condMet.Load(), condUnmet.Load())
	}
}

// runTheorem34Trial returns how many non-vacuous decisions had the Theorem 3
// payoff condition met and unmet, so the caller can assert coverage of both
// signaling branches.
func runTheorem34Trial(seed int64, eng *Engine, rng *rand.Rand) (condMet, condUnmet int64, err error) {
	inst := eng.inst
	for i := 0; i < 12; i++ {
		a := Alert{Type: rng.Intn(inst.NumTypes()), Time: time.Duration(i) * 10 * time.Minute}
		d, err := eng.Process(a)
		if err != nil {
			return condMet, condUnmet, err
		}
		if d.Vacuous {
			continue
		}
		pf := inst.Payoffs[a.Type]
		if pf.SatisfiesTheorem3() {
			condMet++
			// Theorem 3: under the payoff condition the optimal scheme
			// concentrates all auditing on the warned branch — a silent
			// response means a zero chance of audit.
			if math.Abs(d.Scheme.P0) > 1e-7 {
				return condMet, condUnmet, trialErr(seed, i,
					"Theorem 3 violated: p0 = %g with U_ac·U_du − U_dc·U_au = %g > 0",
					d.Scheme.P0, pf.AttackerCovered*pf.DefenderUncovered-pf.DefenderCovered*pf.AttackerUncovered)
			}
		} else {
			condUnmet++
		}
		// Theorem 4: the attacker is exactly indifferent between facing the
		// OSSP and facing the no-signaling SSE at the same θ — the auditor's
		// Theorem 2 gain is not extracted from the attacker. ε covers
		// round-off at the payoff magnitudes drawn above.
		sse := math.Max(0, pf.AttackerExpected(d.Theta))
		ossp := math.Max(0, d.Scheme.AttackerUtility)
		eps := 1e-6 * (1 + sse)
		if math.Abs(sse-ossp) > eps {
			return condMet, condUnmet, trialErr(seed, i,
				"Theorem 4 violated: attacker utility %g under OSSP, %g under SSE at θ = %g", ossp, sse, d.Theta)
		}
	}
	return condMet, condUnmet, nil
}

func trialErr(seed int64, alert int, format string, args ...any) error {
	return fmt.Errorf("trial seed %d, alert %d: %s", seed, alert, fmt.Sprintf(format, args...))
}
