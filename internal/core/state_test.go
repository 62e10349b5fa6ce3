package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"

	"github.com/auditgames/sag/internal/dist"
	"github.com/auditgames/sag/internal/fallback"
	"github.com/auditgames/sag/internal/game"
	"github.com/auditgames/sag/internal/payoff"
)

// stateTestEngine builds a deterministic engine for the durability property
// tests: random (seeded) instance, time-varying rates so decisions depend
// on the alert offset, OSSP policy with a seeded RNG.
func stateTestEngine(t *testing.T, seed int64, journal JournalFunc) (*Engine, int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	numTypes := 2 + rng.Intn(4)
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
	base := make([]float64, numTypes)
	for i := range base {
		base[i] = 1 + rng.Float64()*30
	}
	// Rates decay over the day, so the decision pipeline sees a different
	// game at each alert offset — the snapshot must preserve exactly where
	// the budget chain and the RNG stream stand.
	est := EstimatorFunc(func(at time.Duration) ([]float64, error) {
		frac := 1 - float64(at)/float64(24*time.Hour)
		out := make([]float64, len(base))
		for i, b := range base {
			out[i] = b * frac
		}
		return out, nil
	})
	eng, err := NewEngine(Config{
		Instance:  inst,
		Budget:    5 + rng.Float64()*40,
		Estimator: est,
		Policy:    PolicyOSSP,
		Rand:      rand.New(rand.NewSource(seed ^ 0x77)),
		Journal:   journal,
	})
	if err != nil {
		t.Fatal(err)
	}
	return eng, numTypes
}

// TestPropertySnapshotReplayEqualsPureReplay is the recovery-correctness
// property behind the WAL: for random alert sequences, crash points, and
// snapshot points, restoring a snapshot and replaying the journaled tail,
// then continuing live, must be bit-identical — decisions, budget chain,
// RNG stream, summary, and the end-of-cycle audit plan — to the engine that
// never crashed.
func TestPropertySnapshotReplayEqualsPureReplay(t *testing.T) {
	root := rand.New(rand.NewSource(20260808))
	for trial := 0; trial < 20; trial++ {
		seed := root.Int63()
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed ^ 0x1ce))

			// Golden run: process the whole sequence uninterrupted, capturing
			// the journal the WAL would have recorded.
			var journal []DecisionRecord
			golden, numTypes := stateTestEngine(t, seed, func(rec DecisionRecord) (func() error, error) {
				journal = append(journal, rec)
				return nil, nil
			})
			const n = 24
			alerts := make([]Alert, n)
			for i := range alerts {
				alerts[i] = Alert{
					Type: rng.Intn(numTypes),
					Time: time.Duration(i) * 37 * time.Minute,
				}
			}
			for _, a := range alerts {
				if _, err := golden.Process(a); err != nil {
					t.Fatal(err)
				}
			}

			// Crash at k having snapshotted at s ≤ k: the recovering engine
			// restores the snapshot taken after alert s, replays journal
			// records s..k, then serves alerts k..n live.
			k := 1 + rng.Intn(n-1)
			s := rng.Intn(k + 1)

			shadow, _ := stateTestEngine(t, seed, nil)
			for _, a := range alerts[:s] {
				if _, err := shadow.Process(a); err != nil {
					t.Fatal(err)
				}
			}
			snap := shadow.ExportState()

			var replayJournal []DecisionRecord
			recovered, _ := stateTestEngine(t, seed, func(rec DecisionRecord) (func() error, error) {
				replayJournal = append(replayJournal, rec)
				return nil, nil
			})
			if err := recovered.RestoreState(snap); err != nil {
				t.Fatal(err)
			}
			for _, rec := range journal[s:k] {
				if err := recovered.ApplyDecision(rec); err != nil {
					t.Fatal(err)
				}
			}
			for _, a := range alerts[k:] {
				if _, err := recovered.Process(a); err != nil {
					t.Fatal(err)
				}
			}

			// Bit-identical state.
			if g, r := golden.Decisions(), recovered.Decisions(); !slices.Equal(g, r) {
				t.Fatalf("crash at %d, snapshot at %d: cycle logs differ:\n%+v\n%+v", k, s, g, r)
			}
			if g, r := golden.RemainingBudget(), recovered.RemainingBudget(); math.Float64bits(g) != math.Float64bits(r) {
				t.Fatalf("budgets differ: %v vs %v", g, r)
			}
			if g, r := golden.RNGDraws(), recovered.RNGDraws(); g != r {
				t.Fatalf("rng draws differ: %d vs %d", g, r)
			}
			if g, r := golden.Summary(), recovered.Summary(); g != r {
				t.Fatalf("summaries differ:\n%+v\n%+v", g, r)
			}
			// The live decisions the recovered engine committed after the
			// crash must journal the same records the golden run did.
			for i, rec := range replayJournal {
				if rec != journal[k+i] {
					t.Fatalf("post-recovery journal diverged at %d: %+v vs %+v", i, rec, journal[k+i])
				}
			}
			// Same audit plan at cycle close.
			crng := rand.New(rand.NewSource(seed ^ 0xabc))
			gAudits, gTotal := golden.CloseCycle(crng)
			crng = rand.New(rand.NewSource(seed ^ 0xabc))
			rAudits, rTotal := recovered.CloseCycle(crng)
			if gTotal != rTotal || len(gAudits) != len(rAudits) {
				t.Fatalf("audit plans differ: total %v vs %v", gTotal, rTotal)
			}
			for i := range gAudits {
				if gAudits[i] != rAudits[i] {
					t.Fatalf("audit outcome %d differs: %+v vs %+v", i, gAudits[i], rAudits[i])
				}
			}
		})
	}
}

// TestEngineRebuiltFromJournalExportsLiveState: what the engine holds is what
// replaying its journal rebuilds. For 20 seeds, over a cycle rollover, a live
// engine whose estimator freezes like the paper's knowledge rollback, and
// whose solver fails on chosen alerts — the day's last healthy query among
// them — is rebuilt twice: by ApplyDecision as it commits, and by
// RestoreState from its export. The three keep equal futures and, past the
// freeze, decide alike. The one field replay does not rebuild is LastSSE
// (DESIGN, "The degradation ladder"); it is pinned nil on the replayed engine
// so that closing the gap edits this test.
func TestEngineRebuiltFromJournalExportsLiveState(t *testing.T) {
	inst := multiInstance(t)
	base := []float64{196, 29, 140, 10, 25, 15, 43}
	// An alert every 37 minutes: the second cycle's run from 06:10, and the
	// estimate freezes after alert 17's query at 10:29, the day's last
	// healthy one.
	const every, first, second, after, lastHealthy = 37 * time.Minute, 10, 14, 6, 17
	threshold := 0.0
	for _, b := range base {
		threshold += b * (1 - float64(10*time.Hour+45*time.Minute)/float64(24*time.Hour))
	}
	// The solver fails on each cycle's first alert (the static rung), on the
	// last healthy query and past the freeze (the last-good rung), and once
	// after the rebuild.
	fails := map[int]bool{0: true, first: true, lastHealthy: true, lastHealthy + 3: true, first + second + 2: true}
	root := rand.New(rand.NewSource(20261005))
	for trial := 0; trial < 20; trial++ {
		seed := root.Int63()
		failing := false
		build := func(journal JournalFunc) *Engine {
			e, err := NewEngine(Config{
				Instance:  inst,
				Budget:    50,
				Estimator: &rollbackEstimator{base: base, day: 24 * time.Hour, threshold: threshold},
				Policy:    PolicyOSSP,
				Rand:      rand.New(rand.NewSource(seed)),
				Fallback:  true,
				SSESolve: func(ctx context.Context, inst *game.Instance, budget float64, futures []dist.Poisson) (*game.Result, error) {
					if failing {
						return nil, errors.New("solver down")
					}
					return game.SolveOnlineSSECtx(ctx, inst, budget, futures)
				},
				Journal: journal,
			})
			if err != nil {
				t.Fatal(err)
			}
			return e
		}
		var journal []DecisionRecord
		live := build(func(rec DecisionRecord) (func() error, error) {
			journal = append(journal, rec)
			return nil, nil
		})
		replayed := build(nil)
		engines := []*Engine{live, replayed}
		rng := rand.New(rand.NewSource(seed ^ 0x1ce))
		for i := 0; i < first+second+after; i++ {
			switch i {
			case first:
				for _, e := range engines {
					if err := e.NewCycle(17); err != nil {
						t.Fatal(err)
					}
				}
			case first + second:
				l, r := live.ExportState(), replayed.ExportState()
				if l.LastSSE == nil || r.LastSSE != nil {
					t.Fatalf("seed %d: LastSSE live %v, replayed %v; want set and nil", seed, l.LastSSE, r.LastSSE)
				}
				restored := build(nil)
				if err := restored.RestoreState(l); err != nil {
					t.Fatal(err)
				}
				engines = append(engines, restored)
				l.LastSSE = nil
				if len(l.Decisions) != second || l.RNGDraws != first+second || !reflect.DeepEqual(l, r) {
					t.Fatalf("seed %d: exported states differ:\nlive     %+v\nreplayed %+v", seed, l, r)
				}
			}
			a := Alert{Type: rng.Intn(inst.NumTypes()), Time: time.Duration(i) * every}
			failing = fails[i]
			if i < first+second {
				if _, err := live.Process(a); err != nil {
					t.Fatal(err)
				}
				if err := replayed.ApplyDecision(journal[i]); err != nil {
					t.Fatal(err)
				}
			} else {
				for _, e := range engines {
					if _, err := e.Process(a); err != nil {
						t.Fatal(err)
					}
				}
			}
			failing = false
			for _, e := range engines[1:] {
				if !reflect.DeepEqual(e.futures, live.futures) {
					t.Fatalf("seed %d, alert %d: futures differ:\nlive    %v\nrebuilt %v", seed, i, live.futures, e.futures)
				}
			}
		}
		if got := journal[lastHealthy].Fallback; got != fallback.LastGood {
			t.Fatalf("seed %d: the last healthy query's decision was %v, want the last-good rung", seed, got)
		}
		if got := live.est.(*rollbackEstimator).lastGood; got != lastHealthy*every {
			t.Fatalf("seed %d: estimate frozen at %v, want %v", seed, got, lastHealthy*every)
		}
		want := live.ExportState()
		for _, e := range engines[1:] {
			if got := e.ExportState(); !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d: past the freeze, states differ:\nlive    %+v\nrebuilt %+v", seed, want, got)
			}
		}
	}
}

// TestRestoredEngineDecidesLikeUninterruptedTwin: an engine carries nothing
// from one decision to the next but its cycle state, so a twin restored from
// a mid-cycle snapshot decides the next alerts exactly as the engine that
// kept running — and so does one restored from an earlier snapshot with the
// journal between replayed by ApplyDecision. The alerts share one offset, so
// the rates never move and the budget moves slowly: every decision after
// the rebuild solves on the futures restore or replay kept, κ included.
func TestRestoredEngineDecidesLikeUninterruptedTwin(t *testing.T) {
	const seed, mid, before, after = 99, 12, 30, 50
	var journal []DecisionRecord
	live, numTypes := stateTestEngine(t, seed, func(rec DecisionRecord) (func() error, error) {
		journal = append(journal, rec)
		return nil, nil
	})
	alert := func(i int) Alert { return Alert{Type: i % numTypes, Time: 9 * time.Hour} }
	var midSnap EngineState
	for i := 0; i < before; i++ {
		if i == mid {
			midSnap = live.ExportState()
		}
		if _, err := live.Process(alert(i)); err != nil {
			t.Fatal(err)
		}
	}
	restored, _ := stateTestEngine(t, seed, nil)
	if err := restored.RestoreState(live.ExportState()); err != nil {
		t.Fatal(err)
	}
	replayed, _ := stateTestEngine(t, seed, nil)
	if err := replayed.RestoreState(midSnap); err != nil {
		t.Fatal(err)
	}
	for _, rec := range journal[mid:] {
		if err := replayed.ApplyDecision(rec); err != nil {
			t.Fatal(err)
		}
	}
	for i := before; i < before+after; i++ {
		for _, e := range []*Engine{live, restored, replayed} {
			if _, err := e.Process(alert(i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	l := live.Decisions()
	for name, e := range map[string]*Engine{"restored": restored, "replayed": replayed} {
		if r := e.Decisions(); !slices.Equal(l, r) {
			t.Fatalf("%s cycle log differs from the live one:\n%+v\n%+v", name, l[before:], r[before:])
		}
	}
}

// TestRejectedEstimateKeepsTheLastFutures: an estimate with one NaN rate is
// refused whole. The kept futures stay the previous good estimate's, so the
// static rung's expected remaining cost is that estimate's, and the next
// good estimate is taken in full.
func TestRejectedEstimateKeepsTheLastFutures(t *testing.T) {
	inst := multiInstance(t) // audit cost 1 for every type
	good := func(at time.Duration) []float64 {
		left := 1 - float64(at)/float64(24*time.Hour)
		return []float64{196 * left, 29 * left, 140 * left, 10 * left, 25 * left, 15 * left, 43 * left}
	}
	poisoned := false
	e, err := NewEngine(Config{
		Instance: inst,
		Budget:   50,
		Estimator: EstimatorFunc(func(at time.Duration) ([]float64, error) {
			rates := good(at)
			if poisoned {
				rates[3] = math.NaN()
			}
			return rates, nil
		}),
		Policy: PolicyOSSP,
		Rand:   rand.New(rand.NewSource(5)),
		// The solver never succeeds, so there is no last-good θ and every
		// decision lands on the static rung, which reads the kept futures.
		SSESolve: failingSolver(errors.New("solver down")),
		Fallback: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	expCost := func(rates []float64) (c float64) {
		for _, r := range rates {
			c += r
		}
		return c
	}
	kept := func() []float64 {
		out := make([]float64, len(e.futures))
		for i, f := range e.futures {
			out[i] = f.Lambda
		}
		return out
	}
	for i := 0; i < 3; i++ {
		if _, err := e.Process(Alert{Type: i, Time: time.Duration(i+8) * time.Hour}); err != nil {
			t.Fatal(err)
		}
	}
	last := good(10 * time.Hour)
	poisoned = true
	budget := e.RemainingBudget()
	d, err := e.Process(Alert{Type: 0, Time: 11 * time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	if got := kept(); !slices.Equal(got, last) {
		t.Fatalf("a refused estimate moved the kept rates: %v, want %v", got, last)
	}
	if want := fallback.StaticAuditProbability(budget, expCost(last)); d.Fallback != fallback.Static || d.Theta != want {
		t.Fatalf("decision on a refused estimate: %v rung, θ %v; want the static rung at θ %v", d.Fallback, d.Theta, want)
	}
	poisoned = false
	budget = e.RemainingBudget()
	if d, err = e.Process(Alert{Type: 1, Time: 12 * time.Hour}); err != nil {
		t.Fatal(err)
	}
	next := good(12 * time.Hour)
	if got := kept(); !slices.Equal(got, next) {
		t.Fatalf("kept rates %v after a good estimate, want %v", got, next)
	}
	if want := fallback.StaticAuditProbability(budget, expCost(next)); d.Theta != want {
		t.Fatalf("θ %v after a good estimate, want %v", d.Theta, want)
	}
}

// TestRestoreStateRequiresFreshEngine pins the restore contract: restoring
// onto an engine that has already drawn from its RNG or committed decisions
// must fail rather than silently merge two histories.
func TestRestoreStateRequiresFreshEngine(t *testing.T) {
	eng, numTypes := stateTestEngine(t, 42, nil)
	if _, err := eng.Process(Alert{Type: numTypes - 1, Time: time.Minute}); err != nil {
		t.Fatal(err)
	}
	snap := eng.ExportState()
	if err := eng.RestoreState(snap); err == nil {
		t.Fatal("RestoreState succeeded on a used engine")
	}
	fresh, _ := stateTestEngine(t, 42, nil)
	if err := fresh.RestoreState(snap); err != nil {
		t.Fatal(err)
	}
	if fresh.RNGDraws() != 1 || len(fresh.Decisions()) != 1 {
		t.Fatalf("restored draws=%d decisions=%d", fresh.RNGDraws(), len(fresh.Decisions()))
	}
}

// TestApplyDecisionOrderEnforced pins that replay rejects out-of-order and
// out-of-range records instead of corrupting the budget chain.
func TestApplyDecisionOrderEnforced(t *testing.T) {
	eng, numTypes := stateTestEngine(t, 7, nil)
	if err := eng.ApplyDecision(DecisionRecord{Seq: 3, Type: 0}); err == nil {
		t.Fatal("accepted out-of-order record")
	}
	if err := eng.ApplyDecision(DecisionRecord{Seq: 0, Type: numTypes}); err == nil {
		t.Fatal("accepted out-of-range type")
	}
	if err := eng.ApplyDecision(DecisionRecord{Seq: 0, Type: 0, BudgetAfter: 3}); err != nil {
		t.Fatal(err)
	}
	if got := eng.RemainingBudget(); got != 3 {
		t.Fatalf("budget after replay = %v", got)
	}
}

// TestJournalHookOrderAndDurabilityWait pins the hook contract: records
// arrive in commit order with contiguous sequence numbers, and Process does
// not return before the hook's wait has run.
func TestJournalHookOrderAndDurabilityWait(t *testing.T) {
	var recs []DecisionRecord
	waited := 0
	eng, numTypes := stateTestEngine(t, 99, func(rec DecisionRecord) (func() error, error) {
		recs = append(recs, rec)
		return func() error { waited++; return nil }, nil
	})
	for i := 0; i < 5; i++ {
		if _, err := eng.Process(Alert{Type: i % numTypes, Time: time.Duration(i) * time.Hour}); err != nil {
			t.Fatal(err)
		}
		if waited != i+1 {
			t.Fatalf("Process returned before the journal wait ran (%d/%d)", waited, i+1)
		}
	}
	for i, rec := range recs {
		if rec.Seq != uint64(i) {
			t.Fatalf("journal seq %d at position %d", rec.Seq, i)
		}
	}
}

// TestJournalWaitErrorSurfaces pins that a failed durability wait becomes a
// Process error (the caller must not acknowledge an unjournaled decision).
func TestJournalWaitErrorSurfaces(t *testing.T) {
	eng, _ := stateTestEngine(t, 123, func(rec DecisionRecord) (func() error, error) {
		return func() error { return fmt.Errorf("disk full") }, nil
	})
	if _, err := eng.Process(Alert{Type: 0, Time: time.Minute}); err == nil {
		t.Fatal("Process swallowed the journal error")
	}
}

// TestSilentAuditCycleReplaysBitIdentically commits a cycle on an instance
// whose payoffs all miss the Theorem 3 condition — every scheme comes from
// the closed form's silent-audit branch (p0 > 0) — and requires its journal
// to reproduce it twice over: re-deciding the journaled alerts on a fresh
// engine writes the same records bit for bit, and applying the records to
// another fresh engine rebuilds the same decisions, budget and rng position.
func TestSilentAuditCycleReplaysBitIdentically(t *testing.T) {
	pays := []payoff.Payoff{
		{DefenderCovered: 600, DefenderUncovered: -50, AttackerCovered: -100, AttackerUncovered: 10},
		{DefenderCovered: 900, DefenderUncovered: -30, AttackerCovered: -80, AttackerUncovered: 25},
	}
	for _, pf := range pays {
		if pf.SatisfiesTheorem3() {
			t.Fatalf("fixture payoff %+v satisfies the Theorem 3 condition", pf)
		}
	}
	inst, err := game.NewInstance(pays, []float64{1, 1.5})
	if err != nil {
		t.Fatal(err)
	}
	fresh := func(journal JournalFunc) *Engine {
		e, err := NewEngine(Config{
			Instance: inst, Budget: 30, Policy: PolicyOSSP,
			Estimator: EstimatorFunc(func(at time.Duration) ([]float64, error) {
				left := 1 - float64(at)/float64(24*time.Hour)
				return []float64{40 * left, 25 * left}, nil
			}),
			Rand:    rand.New(rand.NewSource(11)),
			Journal: journal,
		})
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	record := func(into *[]DecisionRecord) JournalFunc {
		return func(rec DecisionRecord) (func() error, error) {
			*into = append(*into, rec)
			return nil, nil
		}
	}

	var journal []DecisionRecord
	live := fresh(record(&journal))
	silentAudits, warned := 0, 0
	for i := 0; i < 40; i++ {
		d, err := live.Process(Alert{Type: i % 2, Time: time.Duration(i) * 20 * time.Minute})
		if err != nil {
			t.Fatal(err)
		}
		if err := d.Scheme.Validate(d.Theta); err != nil {
			t.Fatalf("alert %d: %v", i, err)
		}
		if d.Scheme.P0 > 0 {
			silentAudits++
		}
		if d.Warned {
			warned++
		}
	}
	if silentAudits == 0 || warned == 0 || warned == len(journal) {
		t.Fatalf("cycle did not exercise the branch: %d schemes with p0 > 0, %d of %d warned", silentAudits, warned, len(journal))
	}

	var again []DecisionRecord
	redecided := fresh(record(&again))
	applied := fresh(nil)
	for _, rec := range journal {
		if _, err := redecided.Process(Alert{Type: rec.Type, Time: rec.Time}); err != nil {
			t.Fatal(err)
		}
		if err := applied.ApplyDecision(rec); err != nil {
			t.Fatal(err)
		}
	}
	for i := range journal {
		if again[i] != journal[i] {
			t.Fatalf("re-decided record %d differs:\n %+v\n %+v", i, again[i], journal[i])
		}
	}
	if l, a := live.Decisions(), applied.Decisions(); !slices.Equal(l, journal) || !slices.Equal(a, journal) {
		t.Fatalf("cycle logs differ from the journal:\nlive    %+v\napplied %+v\njournal %+v", l, a, journal)
	}
	if l, a := live.RemainingBudget(), applied.RemainingBudget(); math.Float64bits(l) != math.Float64bits(a) {
		t.Fatalf("budgets differ: %v vs %v", l, a)
	}
	if l, a := live.RNGDraws(), applied.RNGDraws(); l != a {
		t.Fatalf("rng draws differ: %d vs %d", l, a)
	}
}

// BenchmarkRestoreSnapshot times RestoreState of a 4096-decision cycle whose
// rates move at every decision: restore asks the estimator and checks its
// answer 4096 times, and builds the futures once.
func BenchmarkRestoreSnapshot(b *testing.B) {
	inst := multiInstance(b)
	build := func() *Engine {
		e, err := NewEngine(Config{
			Instance: inst,
			Budget:   1e6,
			Estimator: EstimatorFunc(func(at time.Duration) ([]float64, error) {
				left := 1 - float64(at)/float64(24*time.Hour)
				return []float64{196 * left, 29 * left, 140 * left, 10 * left, 25 * left, 15 * left, 43 * left}, nil
			}),
			Policy: PolicyOSSP,
			Rand:   rand.New(rand.NewSource(1)),
		})
		if err != nil {
			b.Fatal(err)
		}
		return e
	}
	live := build()
	for i := 0; i < 4096; i++ {
		if _, err := live.Process(Alert{Type: i % inst.NumTypes(), Time: time.Duration(i) * 10 * time.Second}); err != nil {
			b.Fatal(err)
		}
	}
	st := live.ExportState()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		e := build()
		b.StartTimer()
		if err := e.RestoreState(st); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if !reflect.DeepEqual(e.futures, live.futures) || len(e.decisions) != len(st.Decisions) {
			b.Fatal("the restored engine does not hold the live engine's futures and cycle log")
		}
		b.StartTimer()
	}
}
