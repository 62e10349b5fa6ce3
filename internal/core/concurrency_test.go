package core

import (
	"context"
	"errors"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/auditgames/sag/internal/dist"
	"github.com/auditgames/sag/internal/game"
)

// gatedSolver wraps the real solver so tests can hold a solve inside the
// pipeline. Each entry signals entered; the solve proceeds once release is
// closed.
type gatedSolver struct {
	entered chan struct{}
	release chan struct{}
	calls   atomic.Int32
}

func newGatedSolver() *gatedSolver {
	return &gatedSolver{
		entered: make(chan struct{}, 64),
		release: make(chan struct{}),
	}
}

func (b *gatedSolver) solve(ctx context.Context, inst *game.Instance, budget float64, futures []dist.Poisson) (*game.Result, error) {
	b.calls.Add(1)
	b.entered <- struct{}{}
	select {
	case <-b.release:
	case <-time.After(10 * time.Second):
		return nil, errors.New("gatedSolver: never released")
	}
	return game.SolveOnlineSSECtx(ctx, inst, budget, futures)
}

// processConcurrently drives workers goroutines through Process, perWorker
// alerts each with the seven types interleaved, and fails the test on the
// first error.
func processConcurrently(t *testing.T, e *Engine, workers, perWorker int) {
	t.Helper()
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				if _, err := e.Process(Alert{Type: (g + i) % 7, Time: time.Duration(i) * time.Minute}); err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestProcessConcurrentKeepsBudgetChain drives many goroutines through
// Process and checks the commit-side invariants: every decision committed,
// the budget chain
// contiguous (each decision starts where the previous one ended), and the
// budget never negative.
func TestProcessConcurrentKeepsBudgetChain(t *testing.T) {
	e := testEngine(t, withBudget(1e6), withSeed(42))
	const workers, perWorker = 8, 20
	processConcurrently(t, e, workers, perWorker)
	ds := e.Decisions()
	if len(ds) != workers*perWorker {
		t.Fatalf("committed %d decisions, want %d", len(ds), workers*perWorker)
	}
	for i, d := range ds {
		if d.BudgetAfter < 0 {
			t.Fatalf("decision %d: negative budget %g", i, d.BudgetAfter)
		}
		if i > 0 && d.BudgetBefore != ds[i-1].BudgetAfter {
			t.Fatalf("budget chain broken at %d: starts at %g, previous ended at %g",
				i, d.BudgetBefore, ds[i-1].BudgetAfter)
		}
	}
	if got := e.RemainingBudget(); got != ds[len(ds)-1].BudgetAfter {
		t.Fatalf("remaining budget %g != last decision's %g", got, ds[len(ds)-1].BudgetAfter)
	}
}

// literalFutures is the test oracles' view of rates: Poisson literals, whose
// κ is summed afresh on every call rather than read from what NewPoisson
// stored.
func literalFutures(rates []float64) []dist.Poisson {
	futures := make([]dist.Poisson, len(rates))
	for i, r := range rates {
		futures[i] = dist.Poisson{Lambda: r}
	}
	return futures
}

// checkDecisionsExact requires every committed θ to equal, bit for bit, the
// SSE coverage solved from literals at the decision's own BudgetBefore and
// the rates ratesAt(i) its estimate answered.
func checkDecisionsExact(t *testing.T, inst *game.Instance, ds []DecisionRecord, ratesAt func(i int) []float64) {
	t.Helper()
	for i, d := range ds {
		if d.Fallback.Degraded() {
			t.Fatalf("decision %d degraded to %v with a healthy solver", i, d.Fallback)
		}
		want, err := game.SolveOnlineSSE(inst, d.BudgetBefore, literalFutures(ratesAt(i)))
		if err != nil {
			t.Fatal(err)
		}
		if d.Theta != want.Coverage[d.Type] {
			t.Fatalf("decision %d: θ %g was solved at another state than its BudgetBefore %g and rates %v (want %g)",
				i, d.Theta, d.BudgetBefore, ratesAt(i), want.Coverage[d.Type])
		}
	}
}

// TestConcurrentDecisionsAreExact: every decision is solved at the state it
// commits against. Under 8-way contention each committed θ must equal, bit
// for bit, the SSE coverage at that decision's own BudgetBefore.
func TestConcurrentDecisionsAreExact(t *testing.T) {
	e := testEngine(t, withBudget(200), withSeed(42), func(c *Config) { c.Fallback = true })
	const workers, perWorker = 8, 200
	processConcurrently(t, e, workers, perWorker)

	ds := e.Decisions()
	if len(ds) != workers*perWorker {
		t.Fatalf("committed %d decisions, want %d", len(ds), workers*perWorker)
	}
	checkDecisionsExact(t, multiInstance(t), ds, func(int) []float64 { return fixtureRates })
}

// TestConcurrentDecisionsAreExactAsRatesMove is its twin under an estimate
// that moves: the rollback estimator answers new rates whenever the query
// offset moves until its total drops below the threshold, then asks the
// engine to keep the estimate it last solved on. Each θ must match the
// literals at that decision's own rates, so an engine that solved with the
// κ of a rate that has since moved fails here.
func TestConcurrentDecisionsAreExactAsRatesMove(t *testing.T) {
	const workers, perWorker = 8, 200
	est := &rollbackEstimator{
		base:      fixtureRates,
		day:       perWorker * time.Minute, // processConcurrently's last alert is at 199 min
		threshold: 150,                     // frozen from about minute 135
	}
	e := testEngine(t, withBudget(200), withSeed(42), func(c *Config) { c.Estimator, c.Fallback = est, true })
	processConcurrently(t, e, workers, perWorker)

	ds := e.Decisions()
	if len(ds) != workers*perWorker || len(est.queries) != len(ds) {
		t.Fatalf("committed %d decisions on %d estimates, want %d of each", len(ds), len(est.queries), workers*perWorker)
	}
	// Decision i was solved on the estimator's i-th answer, or, when that
	// answer kept the estimate, on decision i-1's rates.
	answers := make([][]float64, len(ds))
	moved, kept := 0, 0
	for i, at := range est.queries {
		rates, err := est.rates(at)
		switch {
		case errors.Is(err, ErrKeepEstimate) && i > 0:
			answers[i] = answers[i-1]
			kept++
		case err != nil && !errors.Is(err, ErrKeepEstimate):
			t.Fatal(err)
		default:
			answers[i] = rates
			moved++
		}
	}
	if moved == 0 || kept == 0 {
		t.Fatalf("the estimate moved %d times and held %d times; the test needs both", moved, kept)
	}
	checkDecisionsExact(t, multiInstance(t), ds, func(i int) []float64 { return answers[i] })
}

// rollbackEstimator answers in the style of history.Rollback: rates decay
// over the day, and once their total drops below the threshold it answers
// ErrKeepEstimate with the start-of-day rates. It records the offsets it is
// asked. No lock: each test engine has its own, and an engine serializes
// its queries.
type rollbackEstimator struct {
	base      []float64
	day       time.Duration
	threshold float64
	queries   []time.Duration
}

func (r *rollbackEstimator) FutureRates(at time.Duration) ([]float64, error) {
	r.queries = append(r.queries, at)
	return r.rates(at)
}

// rates is the answer at at, which depends on nothing else.
func (r *rollbackEstimator) rates(at time.Duration) ([]float64, error) {
	out := make([]float64, len(r.base))
	total := 0.0
	for i, b := range r.base {
		out[i] = b * (1 - float64(at)/float64(r.day))
		total += out[i]
	}
	if total >= r.threshold {
		return out, nil
	}
	return slices.Clone(r.base), ErrKeepEstimate
}

// TestConcurrentJournalReplaysSequentially is the live == replay oracle in
// miniature: 8 goroutines drive one engine whose estimate freezes and
// whose solver is slow enough for calls to pile up. The journal must list
// the decisions in the order the estimator was queried, and feeding the
// journaled alerts in journal order to a fresh single-threaded engine must
// reproduce every record — θ, signal, budget chain — bit for bit (the scheme
// is a pure function of the payoff and θ). The live cycle log is the journal,
// and so is the log of an engine rebuilt from it by Apply.
func TestConcurrentJournalReplaysSequentially(t *testing.T) {
	const workers, perWorker = 8, 200
	const day = workers * perWorker * time.Second
	var journal []DecisionRecord
	build := func(solve SSESolveFunc, hook JournalFunc) (*Engine, *rollbackEstimator) {
		// The last third of the day answers from frozen knowledge.
		est := &rollbackEstimator{base: fixtureRates, day: day, threshold: 150}
		return testEngine(t, withBudget(200), withSeed(42), withJournal(hook), func(c *Config) {
			c.Estimator, c.SSESolve = est, solve
		}), est
	}
	live, est := build(
		func(ctx context.Context, inst *game.Instance, budget float64, futures []dist.Poisson) (*game.Result, error) {
			time.Sleep(20 * time.Microsecond)
			return game.SolveOnlineSSECtx(ctx, inst, budget, futures)
		}, recordInto(&journal))
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				// Every alert has its own offset, so a query names its alert.
				at := time.Duration(i*workers+g) * time.Second
				if _, err := live.Process(Alert{Type: (g + i) % 7, Time: at}); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	if len(journal) != workers*perWorker || len(est.queries) != len(journal) {
		t.Fatalf("%d journal records and %d estimator queries for %d alerts", len(journal), len(est.queries), workers*perWorker)
	}
	for i, rec := range journal {
		if rec.Seq != uint64(i) || rec.Time != est.queries[i] {
			t.Fatalf("journal record %d (seq %d) is the alert at %v, but the estimator's query %d was for %v",
				i, rec.Seq, rec.Time, i, est.queries[i])
		}
	}

	if !slices.Equal(live.Decisions(), journal) {
		t.Fatal("the live engine's cycle log is not its journal")
	}
	replay, _ := build(nil, nil)
	rebuilt, _ := build(nil, nil)
	differ := 0
	for i, rec := range journal {
		want, err := replay.Process(Alert{Type: rec.Type, Time: rec.Time})
		if err != nil {
			t.Fatal(err)
		}
		if err := applyDecision(rebuilt, rec); err != nil {
			t.Fatal(err)
		}
		if rec != want.record(uint64(i)) {
			if differ++; differ == 1 {
				t.Errorf("decision %d differs from its sequential re-solve:\nlive   %+v\nreplay %+v", i, rec, *want)
			}
		}
	}
	if differ > 0 {
		t.Fatalf("%d of %d decisions differ from their sequential re-solve", differ, len(journal))
	}
	if !slices.Equal(rebuilt.Decisions(), journal) {
		t.Fatal("the cycle log rebuilt by Apply is not the journal")
	}
}

// TestNewCycleWaitsForInflightDecision: a decision in flight when NewCycle is
// called commits to the old cycle; NewCycle then proceeds from a clean slate.
func TestNewCycleWaitsForInflightDecision(t *testing.T) {
	bs := newGatedSolver()
	e := testEngine(t, withBudget(1e6), withSeed(42), func(c *Config) { c.SSESolve = bs.solve })
	type result struct {
		d   *Decision
		err error
	}
	done := make(chan result, 1)
	go func() {
		d, err := e.Process(Alert{Type: 0})
		done <- result{d, err}
	}()
	select {
	case <-bs.entered:
	case <-time.After(5 * time.Second):
		t.Fatal("solve never started")
	}
	rolled := make(chan error, 1)
	go func() { rolled <- e.NewCycle(500) }()
	select {
	case err := <-rolled:
		t.Fatalf("NewCycle returned (%v) while a decision was in flight", err)
	case <-time.After(20 * time.Millisecond):
	}
	close(bs.release)
	r := <-done
	if r.err != nil {
		t.Fatal(r.err)
	}
	if r.d.BudgetBefore != 1e6 {
		t.Fatalf("in-flight decision charged budget %g, want the old cycle's 1e6", r.d.BudgetBefore)
	}
	if err := <-rolled; err != nil {
		t.Fatal(err)
	}
	if got := e.RemainingBudget(); got != 500 {
		t.Fatalf("budget after NewCycle %g, want 500", got)
	}
	if ds := e.Decisions(); len(ds) != 0 {
		t.Fatalf("new cycle starts with %d decisions", len(ds))
	}
}

// TestAbandonedInQueueSkipsEstimator: a caller whose context ends while it
// queues behind another decision returns ErrAbandoned without a single
// estimator call.
func TestAbandonedInQueueSkipsEstimator(t *testing.T) {
	bs := newGatedSolver()
	var queries atomic.Int32
	e := testEngine(t, withBudget(1e6), withSeed(42), func(c *Config) {
		c.SSESolve = bs.solve
		c.Estimator = EstimatorFunc(func(time.Duration) ([]float64, error) {
			queries.Add(1)
			return slices.Clone(fixtureRates), nil
		})
	})
	first := make(chan error, 1)
	go func() {
		_, err := e.Process(Alert{Type: 0})
		first <- err
	}()
	select {
	case <-bs.entered:
	case <-time.After(5 * time.Second):
		t.Fatal("solve never started")
	}
	ctx, cancel := context.WithCancel(context.Background())
	queued := make(chan error, 1)
	go func() {
		_, err := e.ProcessContext(ctx, Alert{Type: 1})
		queued <- err
	}()
	select {
	case err := <-queued:
		t.Fatalf("second decision returned (%v) while the first held the engine", err)
	case <-time.After(20 * time.Millisecond):
	}
	cancel()
	close(bs.release)
	if err := <-first; err != nil {
		t.Fatal(err)
	}
	if err := <-queued; !errors.Is(err, ErrAbandoned) || !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want ErrAbandoned wrapping context.Canceled", err)
	}
	if got := queries.Load(); got != 1 {
		t.Fatalf("estimator was queried %d times, want 1 (the abandoned waiter must not reach it)", got)
	}
	if ds := e.Decisions(); len(ds) != 1 || bs.calls.Load() != 1 {
		t.Fatalf("%d decisions and %d solves, want 1 and 1", len(ds), bs.calls.Load())
	}
}
