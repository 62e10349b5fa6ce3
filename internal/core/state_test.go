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
				if err := applyDecision(recovered, rec); err != nil {
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
			if g, r := golden.ExportState().RNGDraws, recovered.ExportState().RNGDraws; g != r {
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
			gAudits, gTotal, gErr := golden.CloseCycle(seed^0xabc, nil)
			rAudits, rTotal, rErr := recovered.CloseCycle(seed^0xabc, nil)
			if gErr != nil || rErr != nil {
				t.Fatalf("closing: %v, %v", gErr, rErr)
			}
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
// them — is rebuilt twice: by Apply as it commits, and by
// RestoreState from its export. The three keep equal futures and equilibria
// and, past the freeze, decide alike. The estimate freezes at the last
// solved commit, so the last healthy query's degraded decision leaves it at
// the alert before.
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
	est := &rollbackEstimator{base: base, day: 24 * time.Hour, threshold: threshold}
	frozen, err := est.rates((lastHealthy - 1) * every)
	if err != nil {
		t.Fatal(err)
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
				if len(l.Decisions) != second || l.RNGDraws != first+second || !reflect.DeepEqual(l, r) {
					t.Fatalf("seed %d: exported states differ:\nlive     %+v\nreplayed %+v", seed, l, r)
				}
				restored := build(nil)
				if err := restored.RestoreState(l); err != nil {
					t.Fatal(err)
				}
				engines = append(engines, restored)
			}
			a := Alert{Type: rng.Intn(inst.NumTypes()), Time: time.Duration(i) * every}
			failing = fails[i]
			if i < first+second {
				if _, err := live.Process(a); err != nil {
					t.Fatal(err)
				}
				if err := applyDecision(replayed, journal[i]); err != nil {
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
			assertKeptAlike(t, engines, fmt.Sprintf("seed %d, alert %d", seed, i))
		}
		if got := journal[lastHealthy].Fallback; got != fallback.LastGood {
			t.Fatalf("seed %d: the last healthy query's decision was %v, want the last-good rung", seed, got)
		}
		for i, f := range live.futures {
			if f.Lambda != frozen[i] {
				t.Fatalf("seed %d: estimate frozen at %v, want the rates of alert %d, %v", seed, live.futures, lastHealthy-1, frozen)
			}
		}
		want := live.ExportState()
		for _, e := range engines[1:] {
			if got := e.ExportState(); !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d: past the freeze, states differ:\nlive    %+v\nrebuilt %+v", seed, want, got)
			}
		}
	}
}

// TestOnlyCommitsMoveTheKeptEstimate: a decision that does not commit leaves
// no trace. Around the rollback's freeze, the live engine previews an alert,
// abandons a decision after its estimate and solve, and has a record refused
// by its journal, each at an earlier, healthy offset whose estimate differs
// from the one it keeps. None of that is in the journal, so an engine
// rebuilt by Apply and one restored by RestoreState keep the live
// engine's futures and equilibrium, and from the restore on all three decide
// alike.
func TestOnlyCommitsMoveTheKeptEstimate(t *testing.T) {
	inst := multiInstance(t)
	base := []float64{196, 29, 140, 10, 25, 15, 43}
	// An alert every 30 minutes from midnight; the estimate freezes from
	// alert 25 (12:30) on.
	const every, alerts, restoreAt = 30 * time.Minute, 40, 29
	threshold := 0.0
	for _, b := range base {
		threshold += b * (1 - float64(12*time.Hour+15*time.Minute)/float64(24*time.Hour))
	}
	var journal []DecisionRecord
	var onSolve func()
	refuse := false
	build := func(journaled bool) *Engine {
		cfg := Config{
			Instance:  inst,
			Budget:    40,
			Estimator: &rollbackEstimator{base: base, day: 24 * time.Hour, threshold: threshold},
			Policy:    PolicyOSSP,
			Rand:      rand.New(rand.NewSource(7)),
			Fallback:  true,
			SSESolve: func(ctx context.Context, inst *game.Instance, budget float64, futures []dist.Poisson) (*game.Result, error) {
				if onSolve != nil {
					onSolve()
				}
				return game.SolveOnlineSSECtx(ctx, inst, budget, futures)
			},
		}
		if journaled {
			cfg.Journal = func(rec DecisionRecord) (func() error, error) {
				if refuse {
					return nil, errors.New("journal full")
				}
				journal = append(journal, rec)
				return nil, nil
			}
		}
		e, err := NewEngine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	// ghosts are what the live engine does at an alert before deciding it;
	// each fails to commit.
	ghosts := map[int]func(e *Engine, a Alert) error{}
	preview := func(e *Engine, a Alert) error {
		_, err := e.Preview(a)
		return err
	}
	abandon := func(e *Engine, a Alert) error {
		ctx, cancel := context.WithCancel(context.Background())
		onSolve = cancel
		defer func() { onSolve = nil }()
		if _, err := e.ProcessContext(ctx, a); !errors.Is(err, ErrAbandoned) {
			return fmt.Errorf("abandoned decision answered %v", err)
		}
		return nil
	}
	refused := func(e *Engine, a Alert) error {
		refuse = true
		defer func() { refuse = false }()
		if _, err := e.Process(a); err == nil {
			return errors.New("a refused record committed")
		}
		return nil
	}
	for i, g := range []func(*Engine, Alert) error{preview, abandon, refused} {
		ghosts[23+i] = g // the last healthy alerts and the first frozen one
		ghosts[27+3*i] = g
		ghosts[34+i] = g
	}

	live, replayed := build(true), build(false)
	engines := []*Engine{live, replayed}
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < alerts; i++ {
		a := Alert{Type: rng.Intn(inst.NumTypes()), Time: time.Duration(i) * every}
		if i == restoreAt {
			restored := build(false)
			if err := restored.RestoreState(live.ExportState()); err != nil {
				t.Fatal(err)
			}
			engines = append(engines, restored)
		}
		if g := ghosts[i]; g != nil {
			futures, sse := kept(t, live)
			futures = slices.Clone(futures)
			st := live.ExportState()
			if err := g(live, Alert{Type: a.Type, Time: a.Time - 6*every}); err != nil {
				t.Fatalf("alert %d: %v", i, err)
			}
			if f, s := kept(t, live); !reflect.DeepEqual(f, futures) || s != sse || !reflect.DeepEqual(live.ExportState(), st) {
				t.Fatalf("alert %d: a decision that did not commit changed the engine", i)
			}
		}
		if i < restoreAt {
			if _, err := live.Process(a); err != nil {
				t.Fatal(err)
			}
			if err := applyDecision(replayed, journal[i]); err != nil {
				t.Fatal(err)
			}
		} else {
			var want DecisionRecord
			for k, e := range engines {
				d, err := e.Process(a)
				if err != nil {
					t.Fatal(err)
				}
				if rec := d.record(uint64(i)); k == 0 {
					want = rec
				} else if rec != want {
					t.Fatalf("alert %d: engine %d decided\n%+v\nthe live engine\n%+v", i, k, rec, want)
				}
			}
		}
		assertKeptAlike(t, engines, fmt.Sprintf("alert %d", i))
	}
	if len(journal) != alerts || !slices.Equal(live.Decisions(), journal) {
		t.Fatalf("the live engine's log is not its %d-record journal", len(journal))
	}
	if live.futures[0].Lambda != base[0]*(1-float64(24*every)/float64(24*time.Hour)) {
		t.Fatalf("estimate frozen at %v, want alert 24's", live.futures)
	}
}

// kept returns e's kept futures and equilibrium, rebuilding them first if
// records were replayed since its last decision.
func kept(t testing.TB, e *Engine) ([]dist.Poisson, *game.Result) {
	t.Helper()
	e.mu.Lock()
	defer e.mu.Unlock()
	if err := e.rebuildLocked(context.Background()); err != nil {
		t.Fatal(err)
	}
	return e.futures, e.lastSSE
}

// assertKeptAlike requires every engine to keep engines[0]'s futures and
// equilibrium.
func assertKeptAlike(t *testing.T, engines []*Engine, where string) {
	t.Helper()
	futures, sse := kept(t, engines[0])
	for i, e := range engines[1:] {
		if f, s := kept(t, e); !reflect.DeepEqual(f, futures) || !reflect.DeepEqual(s, sse) {
			t.Fatalf("%s: engine %d keeps other than the live engine:\nlive    %v %+v\nrebuilt %v %+v", where, i+1, futures, sse, f, s)
		}
	}
}

// TestRestoredEngineDecidesLikeUninterruptedTwin: an engine carries nothing
// from one decision to the next but its cycle state, so a twin restored from
// a mid-cycle snapshot decides the next alerts exactly as the engine that
// kept running — and so does one restored from an earlier snapshot with the
// journal between replayed by Apply. The alerts share one offset, so
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
		if err := applyDecision(replayed, rec); err != nil {
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
// refused whole. The kept futures stay those of the last solved decision,
// so the static rung's expected remaining cost is that estimate's; a good
// estimate under a failing solver does not move them either, and the next
// solved decision's estimate is taken in full.
func TestRejectedEstimateKeepsTheLastFutures(t *testing.T) {
	inst := multiInstance(t) // audit cost 1 for every type
	good := func(at time.Duration) []float64 {
		left := 1 - float64(at)/float64(24*time.Hour)
		return []float64{196 * left, 29 * left, 140 * left, 10 * left, 25 * left, 15 * left, 43 * left}
	}
	poisoned, down := false, false
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
		SSESolve: func(ctx context.Context, inst *game.Instance, budget float64, futures []dist.Poisson) (*game.Result, error) {
			if down {
				return nil, errors.New("solver down")
			}
			return game.SolveOnlineSSECtx(ctx, inst, budget, futures)
		},
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
	// With the solver down and no θ dropped, the last-good rung would answer:
	// drop it so every degraded decision lands on the static rung.
	e.lastSSE = nil
	last := good(10 * time.Hour)
	down = true
	for _, p := range []bool{true, false} {
		poisoned = p
		budget := e.RemainingBudget()
		d, err := e.Process(Alert{Type: 0, Time: 11 * time.Hour})
		if err != nil {
			t.Fatal(err)
		}
		if got := kept(); !slices.Equal(got, last) {
			t.Fatalf("a degraded decision (poisoned %v) moved the kept rates: %v, want %v", p, got, last)
		}
		if want := fallback.StaticAuditProbability(budget, expCost(last)); d.Fallback != fallback.Static || d.Theta != want {
			t.Fatalf("decision with the solver down (poisoned %v): %v rung, θ %v; want the static rung at θ %v", p, d.Fallback, d.Theta, want)
		}
	}
	poisoned, down = false, false
	if _, err = e.Process(Alert{Type: 1, Time: 12 * time.Hour}); err != nil {
		t.Fatal(err)
	}
	if got, next := kept(), good(12*time.Hour); !slices.Equal(got, next) {
		t.Fatalf("kept rates %v after a solved decision, want %v", got, next)
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
	if fresh.ExportState().RNGDraws != 1 || len(fresh.Decisions()) != 1 {
		t.Fatalf("restored draws=%d decisions=%d", fresh.ExportState().RNGDraws, len(fresh.Decisions()))
	}
}

// TestRestoreStateRejectsInvalidBudgets: a snapshot comes from disk, so a
// budget or an initial budget that NewCycle would refuse is refused here
// too, before the engine changes — a NaN initial budget would otherwise
// read back as a NaN BudgetSpent.
func TestRestoreStateRejectsInvalidBudgets(t *testing.T) {
	for _, bad := range []float64{-1, math.NaN(), math.Inf(1)} {
		for _, st := range []EngineState{{Budget: bad, Initial: 5}, {Budget: 5, Initial: bad}} {
			eng, _ := stateTestEngine(t, 42, nil)
			if err := eng.RestoreState(st); err == nil {
				t.Fatalf("restored budget %v, initial %v", st.Budget, st.Initial)
			}
			if s := eng.Summary(); math.IsNaN(s.BudgetSpent) || s.BudgetSpent != 0 {
				t.Fatalf("a refused restore moved the engine: spent %v", s.BudgetSpent)
			}
		}
	}
}

// TestApplyDecisionOrderEnforced pins that replay rejects out-of-order and
// out-of-range records instead of corrupting the budget chain.
func TestApplyDecisionOrderEnforced(t *testing.T) {
	eng, numTypes := stateTestEngine(t, 7, nil)
	if err := applyDecision(eng, DecisionRecord{Seq: 3, Type: 0}); err == nil {
		t.Fatal("accepted out-of-order record")
	}
	if err := applyDecision(eng, DecisionRecord{Seq: 0, Type: numTypes}); err == nil {
		t.Fatal("accepted out-of-range type")
	}
	if err := applyDecision(eng, DecisionRecord{Seq: 0, Type: 0, BudgetAfter: 3}); err != nil {
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
		if err := applyDecision(applied, rec); err != nil {
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
	if l, a := live.ExportState().RNGDraws, applied.ExportState().RNGDraws; l != a {
		t.Fatalf("rng draws differ: %d vs %d", l, a)
	}
}

// BenchmarkRestoreSnapshot times RestoreState of a 4096-decision cycle and
// the rebuild of its kept estimate and equilibrium: restore asks the
// estimator nothing per record, and the rebuild walks the solved records
// back while the estimator answers ErrKeepEstimate, then solves once. In
// the moving arm the rates move at every decision, so the walk is one
// query; in the frozen arm the second half of the cycle is past the freeze,
// so it is 2049.
func BenchmarkRestoreSnapshot(b *testing.B) {
	const decisions, every = 4096, 10 * time.Second
	for _, arm := range []struct {
		name   string
		freeze time.Duration
	}{{"moving", 24 * time.Hour}, {"frozen", decisions / 2 * every}} {
		b.Run(arm.name, func(b *testing.B) {
			benchmarkRestore(b, decisions, every, arm.freeze)
		})
	}
}

func benchmarkRestore(b *testing.B, decisions int, every, freeze time.Duration) {
	inst := multiInstance(b)
	start := []float64{196, 29, 140, 10, 25, 15, 43}
	build := func() *Engine {
		e, err := NewEngine(Config{
			Instance: inst,
			Budget:   1e6,
			Estimator: EstimatorFunc(func(at time.Duration) ([]float64, error) {
				if at >= freeze {
					return start, ErrKeepEstimate
				}
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
	for i := 0; i < decisions; i++ {
		if _, err := live.Process(Alert{Type: i % inst.NumTypes(), Time: time.Duration(i) * every}); err != nil {
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
		futures, sse := kept(b, e)
		b.StopTimer()
		if !reflect.DeepEqual(futures, live.futures) || !reflect.DeepEqual(sse, live.lastSSE) || len(e.decisions) != len(st.Decisions) {
			b.Fatal("the restored engine does not keep the live engine's futures, equilibrium and cycle log")
		}
		b.StartTimer()
	}
}

// applyDecision replays one journaled decision, as recovery does.
func applyDecision(e *Engine, r DecisionRecord) error {
	err := e.Apply(Record{Kind: KindDecision, Decision: r}, nil)
	return err
}

// TestLiveEqualsReplayForEveryRecordKind: an engine that applies every kind
// of record live — decisions through Process, the rest through Apply with a
// journal — and a fresh twin replaying the journal it wrote export equal
// state after every prefix. A repeated quit changes nothing, a new cycle
// zeroes the counters and keeps the flagged set, and a record the journal
// refuses is not applied.
func TestLiveEqualsReplayForEveryRecordKind(t *testing.T) {
	var journal []Record
	enqueue := func(r Record) (func() error, error) {
		journal = append(journal, r)
		return nil, nil
	}
	live, _ := stateTestEngine(t, 11, func(d DecisionRecord) (func() error, error) {
		return enqueue(Record{Kind: KindDecision, Decision: d})
	})
	replayed, _ := stateTestEngine(t, 11, nil)
	decide := func() error {
		_, err := live.Process(Alert{Type: 0, Time: 9 * time.Hour})
		return err
	}
	apply := func(r Record) func() error {
		return func() error {
			err := live.Apply(r, enqueue)
			return err
		}
	}
	refused := func() error {
		err := live.Apply(Record{Kind: KindQuit, Employee: 9}, func(Record) (func() error, error) {
			return nil, errors.New("disk full")
		})
		if err == nil {
			return errors.New("a refused enqueue was not an error")
		}
		return nil
	}
	closed := func(do func() error) func() error {
		return func() error {
			if err := do(); !errors.Is(err, ErrCycleClosed) {
				return fmt.Errorf("on a closed cycle: err %v, want ErrCycleClosed", err)
			}
			return nil
		}
	}
	steps := []struct {
		name string
		do   func() error
	}{
		{"decision", decide},
		{"benign meta", apply(Record{Kind: KindMeta})},
		{"alerted meta", apply(Record{Kind: KindMeta, Meta: Meta{Alerted: true}})},
		{"warned meta", apply(Record{Kind: KindMeta, Meta: Meta{Alerted: true, Warned: true}})},
		{"first quit", apply(Record{Kind: KindQuit, Employee: 7})},
		{"repeated quit", apply(Record{Kind: KindQuit, Employee: 7})},
		{"refused quit", refused},
		{"second employee's quit", apply(Record{Kind: KindQuit, Employee: 3})},
		{"decision after quits", decide},
		{"close", apply(Record{Kind: KindCycleClose})},
		{"access on the closed cycle", closed(apply(Record{Kind: KindMeta}))},
		{"decision on the closed cycle", closed(decide)},
		{"second close", closed(apply(Record{Kind: KindCycleClose}))},
		{"quit on the closed cycle", apply(Record{Kind: KindQuit, Employee: 5})},
		{"new cycle", apply(Record{Kind: KindCycleOpen, Budget: 12})},
		{"decision in the new cycle", decide},
		{"meta in the new cycle", apply(Record{Kind: KindMeta})},
	}
	applied := 0
	for _, step := range steps {
		if err := step.do(); err != nil {
			t.Fatalf("%s: %v", step.name, err)
		}
		for _, r := range journal[applied:] {
			if err := replayed.Apply(r, nil); err != nil {
				t.Fatalf("%s: replaying %v: %v", step.name, r.Kind, err)
			}
		}
		applied = len(journal)
		if l, r := live.ExportState(), replayed.ExportState(); !reflect.DeepEqual(l, r) {
			t.Fatalf("after %s: live and replay diverge:\nlive   %+v\nreplay %+v", step.name, l, r)
		}
		st := live.Status()
		switch step.name {
		case "repeated quit":
			if st.Quits != 1 || st.FlaggedUsers != 1 {
				t.Fatalf("a repeated quit moved quits to %d, flagged to %d", st.Quits, st.FlaggedUsers)
			}
		case "close":
			want := CycleStatus{Budget: st.Budget, Remaining: st.Remaining, Accesses: 5, Alerts: 4, Warned: st.Warned, Quits: 2, FlaggedUsers: 2, Closed: true}
			if st != want || st.Warned < 1 {
				t.Fatalf("closed cycle: %+v, want %+v", st, want)
			}
		case "new cycle":
			if want := (CycleStatus{Budget: 12, Remaining: 12, FlaggedUsers: 3}); st != want {
				t.Fatalf("new cycle: %+v, want %+v", st, want)
			}
		}
	}
	if got := live.ExportState().Flagged; !slices.Equal(got, []int{3, 5, 7}) {
		t.Fatalf("flagged %v, want [3 5 7]", got)
	}
}
