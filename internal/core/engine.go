// Package core implements the paper's primary contribution: the online
// Signaling Audit Game engine.
//
// The engine processes a stream of triggered alerts within one audit cycle.
// For each alert it runs the full SAG pipeline in real time:
//
//  1. estimate the Poisson-distributed number of future alerts per type
//     (pluggable Estimator; production code uses internal/history, which
//     also implements the paper's "knowledge rollback" trick),
//  2. solve the online SSE (LP (2), internal/game) for the remaining budget
//     to obtain the marginal audit probabilities θ,
//  3. plug θ of the alert's type into the optimal signaling program (LP (3),
//     which internal/signaling solves in closed form for every valid payoff)
//     to obtain the OSSP joint warn/audit scheme,
//  4. sample the signal (warn or stay silent) and charge the remaining
//     budget with the signal-conditional audit probability × audit cost,
//
// and returns everything in a Decision for downstream evaluation. What the
// cycle keeps of it is one DecisionRecord — the form the journal gets. The
// engine holds the tenant's whole cycle state — budget chain, cycle log,
// counters, flagged employees, whether the cycle is closed — and one
// function, applyLocked, changes it for every journal record kind, live and
// on replay. A non-signaling
// mode (PolicySSE) reproduces the paper's "online SSE" baseline under
// identical budget dynamics.
package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"time"

	"github.com/auditgames/sag/internal/dist"
	"github.com/auditgames/sag/internal/fallback"
	"github.com/auditgames/sag/internal/game"
	"github.com/auditgames/sag/internal/obs"
	"github.com/auditgames/sag/internal/signaling"
)

// Alert is one triggered alert as seen by the engine: its type (index into
// the game instance) and its arrival offset within the audit cycle.
type Alert struct {
	Type int
	Time time.Duration
}

// Estimator supplies the engine's belief about future alert volumes: the
// expected number of alerts of each type arriving strictly after the given
// cycle offset. Implementations may incorporate the paper's knowledge
// rollback; the engine treats the returned rates as Poisson means (§3.1).
//
// An answer must be a function of at alone: the engine keeps what it needs
// of past answers itself, so recovery rebuilds it from the cycle log and one
// estimator may serve many engines at once. An estimator that holds its
// estimate (the paper's knowledge rollback) answers ErrKeepEstimate; the
// engine then solves on the futures of the cycle's last solved decision, or,
// when none has committed, on the rates returned alongside the sentinel. The
// engine queries it under its budget lock, so it must not call back into the
// Engine, which would deadlock.
type Estimator interface {
	FutureRates(at time.Duration) ([]float64, error)
}

// ErrKeepEstimate is an Estimator's answer for "the estimate has not moved":
// the engine solves on the futures its last solved decision of the cycle
// committed. The rates returned with it are used only before any has.
var ErrKeepEstimate = errors.New("core: keep the committed estimate")

// EstimatorFunc adapts a plain function to the Estimator interface.
type EstimatorFunc func(at time.Duration) ([]float64, error)

// FutureRates implements Estimator.
func (f EstimatorFunc) FutureRates(at time.Duration) ([]float64, error) { return f(at) }

// SSESolveFunc is the signature of the online SSE solver the engine invokes
// once per decision. It exists as an injection seam: internal/faultinject
// wraps it to inject solver errors, latency, and panics, and tests can
// substitute canned results. The default is game.SolveOnlineSSECtx. It runs
// under the engine's budget lock and must not call back into the Engine.
// futures is the estimate the decision solves on, in the engine's own
// storage: read it, never write it, and do not retain it past the call.
type SSESolveFunc func(ctx context.Context, inst *game.Instance, budget float64, futures []dist.Poisson) (*game.Result, error)

// Policy selects the engine's auditing policy.
type Policy int

const (
	// PolicyOSSP is the paper's contribution: optimal online signaling on
	// top of the online SSE marginals.
	PolicyOSSP Policy = iota
	// PolicySSE is the non-signaling baseline: commit to the online SSE
	// marginal audit probability for each alert.
	PolicySSE
)

// String returns a human-readable policy name.
func (p Policy) String() string {
	switch p {
	case PolicyOSSP:
		return "OSSP"
	case PolicySSE:
		return "online-SSE"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// Config assembles an Engine.
type Config struct {
	// Instance is the audit game (payoffs + audit costs per type).
	Instance *game.Instance
	// Budget is the total audit budget for the cycle.
	Budget float64
	// Estimator supplies future alert volumes; required.
	Estimator Estimator
	// Policy selects OSSP (default) or the SSE baseline.
	Policy Policy
	// Rand drives signal sampling. Required for PolicyOSSP so runs are
	// reproducible; the engine never falls back to global randomness.
	Rand *rand.Rand
	// Metrics, when non-nil, receives the engine's instrumentation:
	// per-stage solve latencies, the vacuous-game counter, solver effort,
	// the remaining-budget gauge and the service counters (see the Metric*
	// constants). A nil registry disables collection with near-zero overhead.
	Metrics *obs.Registry
	// MetricLabels are extra labels stamped on every engine counter and
	// gauge — the multi-tenant server passes tenant="<id>" so each tenant's
	// engine exports its own series in the shared registry; the latency
	// histograms are shared by every engine in it. Empty (the default)
	// keeps the unlabeled series names of a single-tenant deployment.
	MetricLabels []obs.Label
	// Fallback enables graceful degradation: when the decision pipeline
	// fails (estimator error, solver error or panic), Process descends the
	// ladder in internal/fallback — last-good θ → static conservative
	// policy — instead of returning an error. Every
	// degraded decision is tagged with its fallback.Level and
	// counted in sag_engine_fallback_total. Alerts that are invalid per se
	// (type out of range) still error: no ladder rung can define a payoff
	// for a type the game does not have.
	Fallback bool
	// SSESolve overrides the online SSE solver (nil means
	// game.SolveOnlineSSECtx). This is the injection seam used by
	// internal/faultinject and by solver-substitution tests. Like the
	// Estimator it runs under the engine's budget lock: it must not call
	// back into the Engine, and one that ignores its context holds up every
	// other caller of this engine until it returns.
	SSESolve SSESolveFunc
	// Journal, when non-nil, receives the durable form of every decision
	// about to commit, invoked under the budget lock in commit order; the
	// returned wait (if any) is awaited before ProcessContext returns. See
	// JournalFunc for the contract. Nil disables journaling.
	Journal JournalFunc
}

// Decision is everything the engine did for one alert, solver artifacts
// included. It belongs to the caller of Process or Preview: the engine keeps
// only its DecisionRecord and, once a solved decision commits, reads its SSE
// as the last-good equilibrium, so the caller must not modify SSE.
type Decision struct {
	Alert        Alert
	BudgetBefore float64
	BudgetAfter  float64

	// SSE is the online Stackelberg equilibrium solved at this alert.
	SSE *game.Result
	// Theta is the marginal audit probability of this alert's own type
	// under the SSE commitment (θ^t_SSE = θ^t_SAG by Theorem 1).
	Theta float64

	// Scheme is the OSSP joint distribution (zero value under PolicySSE).
	Scheme signaling.Scheme
	// Warned reports whether the sampled signal was the warning ξ1
	// (always false under PolicySSE, which never warns).
	Warned bool
	// AuditCharge is the signal-conditional audit probability charged
	// against the budget (times the type's audit cost).
	AuditCharge float64

	// SSEUtility is the auditor's expected utility for this alert without
	// signaling. It is the optimal objective of LP (2) whenever the
	// attacker participates; when the SSE coverage alone already deters the
	// attack (his best-response utility is negative) it is 0, following the
	// participation accounting of the paper's Theorem 2 proof. In the
	// paper's evaluation regime (thin coverage, attacker utility positive)
	// the two notions coincide.
	SSEUtility float64
	// OSSPUtility is the auditor's expected utility with signaling — the
	// optimal objective of LP (3) when the SAG applies to this alert, and
	// SSEUtility otherwise (the paper's multi-type comparison protocol).
	OSSPUtility float64
	// AppliedSAG reports whether this alert's type was the attacker's
	// best-response type, i.e. whether the signaling scheme was actually
	// engaged for this alert.
	AppliedSAG bool
	// Vacuous reports that no type was attackable (all estimated future
	// rates zero), making the game degenerate for this alert.
	Vacuous bool
	// Fallback records how this decision was produced: fallback.None for
	// the primary pipeline, or the ladder rung (LastGood, Static)
	// that answered after the pipeline failed. See Config.Fallback.
	Fallback fallback.Level
}

// Engine executes one audit cycle online.
//
// Concurrency contract: every exported method is safe for concurrent use,
// and a decision is one critical section. The paper's online game is
// sequential — alert τ+1 is solved at exactly the budget alert τ left behind
// — so Process holds the budget lock mu from the estimator query through
// the solve, the signal draw, the journal enqueue and the commit; only the
// journal's durability wait runs after the unlock. Estimator query order,
// commit order and journal order are therefore one order, and replaying a
// journal on a fresh engine reproduces every decision bit for bit. A solve
// is microseconds; the plug-ins it calls (Estimator, SSESolve, Journal) run
// under mu and must not call back into the Engine. CloseCycle and Snapshot
// are one critical section each too and a closed cycle refuses accesses
// (ErrCycleClosed), so no caller needs a lock to stay off a cycle boundary.
//
// Decisions remain order-dependent through the remaining budget, so callers
// that need a *specific* interleaving (the simulation harness replaying a
// recorded day, for example) must still serialize externally.
//
// The cycle log is the journal's records and nothing else, so a live engine
// and one rebuilt from its snapshot and journal hold equal logs.
type Engine struct {
	mu       sync.Mutex // guards everything below
	inst     *game.Instance
	est      Estimator
	policy   Policy
	rng      *rand.Rand
	degrade  bool
	sseSolve SSESolveFunc
	journal  JournalFunc
	budget   float64
	initial  float64
	rngDraws uint64 // signal-sampling draws consumed
	// pendingDraw buffers one value pulled from rng but not yet consumed
	// (counted in rngDraws). The commit path peeks the draw to sample the
	// signal and consumes it only once the journal record is enqueued; a
	// refused enqueue commits nothing but cannot rewind rng, so the
	// buffered value is what keeps the live stream aligned with the stream
	// a crash-recovered engine would fast-forward to.
	pendingDraw float64
	hasPending  bool
	decisions   []DecisionRecord // the cycle log; applyLocked is its one writer
	// The rest of the tenant's cycle state (see EngineState), applyLocked
	// its one writer too: the counters, the flagged employees, and closed.
	accesses, alerts, warned, quits int64
	flagged                         []int // ascending
	closed                          bool
	// lastSSE and futures are the equilibrium and the estimate, κ included,
	// of the cycle's last solved (Fallback None) commit: the last-good rung
	// reads θ from lastSSE, the static rung its expected cost from futures,
	// and a decision whose estimator answers ErrKeepEstimate solves on
	// futures. applyLocked alone moves them, so a decision that does not
	// commit leaves no trace: each decision's estimate is built in scratch
	// and adopted at commit. replayed reports solved records applied without
	// their solve: rebuildLocked derives both from the log before the next
	// decision reads them. NewCycle clears all three — a new cycle's budget
	// makes the old θ stale, and degrading from genuinely no information is
	// exactly what the static rung is for.
	lastSSE  *game.Result
	futures  []dist.Poisson
	scratch  []dist.Poisson
	replayed bool
	met      engineMetrics
}

// ErrAbandoned reports that the caller's context ended before the decision
// reached its commit — while it queued for the budget lock or during the
// solve: nothing was sampled, charged, recorded or journaled. The context is
// the only clock on a decision; its end never degrades, with or without
// Fallback.
var ErrAbandoned = errors.New("core: decision abandoned before commit")

// ErrCycleClosed reports that the cycle's audit plan has been drawn: until
// the next KindCycleOpen, decisions, accesses and a second close are refused
// before anything is estimated, drawn or journaled for them.
var ErrCycleClosed = errors.New("core: audit cycle is closed")

// NewEngine validates cfg and returns a ready Engine.
func NewEngine(cfg Config) (*Engine, error) {
	if cfg.Instance == nil {
		return nil, errors.New("core: Config.Instance is required")
	}
	if cfg.Estimator == nil {
		return nil, errors.New("core: Config.Estimator is required")
	}
	if err := ValidateBudget(cfg.Budget); err != nil {
		return nil, err
	}
	if cfg.Policy != PolicyOSSP && cfg.Policy != PolicySSE {
		return nil, fmt.Errorf("core: unknown policy %d", cfg.Policy)
	}
	if cfg.Policy == PolicyOSSP && cfg.Rand == nil {
		return nil, errors.New("core: Config.Rand is required for PolicyOSSP (signal sampling)")
	}
	solve := cfg.SSESolve
	if solve == nil {
		solve = game.SolveOnlineSSECtx
	}
	e := &Engine{
		inst:     cfg.Instance,
		est:      cfg.Estimator,
		policy:   cfg.Policy,
		rng:      cfg.Rand,
		degrade:  cfg.Fallback,
		sseSolve: solve,
		journal:  cfg.Journal,
		budget:   cfg.Budget,
		initial:  cfg.Budget,
		met:      newEngineMetrics(cfg.Metrics, cfg.Policy, cfg.MetricLabels...),
	}
	e.met.budget.Set(e.budget)
	return e, nil
}

// RemainingBudget returns the budget left for the rest of the cycle.
func (e *Engine) RemainingBudget() float64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.budget
}

// ValidateBudget reports whether b is usable as a cycle budget — the exact
// precondition NewEngine and a KindCycleOpen record's Apply enforce.
func ValidateBudget(b float64) error {
	if b < 0 || math.IsNaN(b) || math.IsInf(b, 0) {
		return fmt.Errorf("core: invalid budget %g", b)
	}
	return nil
}

// NewCycle applies an unjournaled KindCycleOpen record: the budget is reset
// to the given value, the cycle log, kept estimate and counters are cleared
// and the cycle is open. The flagged employees and the RNG stream are kept,
// so one Engine can process a whole sequence of audit days. A decision in
// flight commits to the old cycle first; NewCycle waits its turn.
func (e *Engine) NewCycle(budget float64) error {
	return e.Apply(Record{Kind: KindCycleOpen, Budget: budget}, nil)
}

// CycleStatus is one consistent view of the cycle (see EngineState).
type CycleStatus struct {
	Budget, Remaining               float64
	Accesses, Alerts, Warned, Quits int64
	FlaggedUsers                    int
	Closed                          bool
}

// Status reads the cycle's status under one hold of the budget lock.
func (e *Engine) Status() CycleStatus {
	e.mu.Lock()
	defer e.mu.Unlock()
	return CycleStatus{
		Budget: e.initial, Remaining: e.budget,
		Accesses: e.accesses, Alerts: e.alerts, Warned: e.warned, Quits: e.quits,
		FlaggedUsers: len(e.flagged), Closed: e.closed,
	}
}

// Flagged reports whether emp has quit a warned access.
func (e *Engine) Flagged(emp int) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	_, ok := slices.BinarySearch(e.flagged, emp)
	return ok
}

// Decisions returns a copy of the cycle log: one record per committed
// decision, in commit order.
func (e *Engine) Decisions() []DecisionRecord {
	e.mu.Lock()
	defer e.mu.Unlock()
	return slices.Clone(e.decisions)
}

// Process handles one arriving alert: solves the games, samples the signal
// (under PolicyOSSP), charges the budget, logs the decision's record and
// returns the Decision. It is ProcessContext(context.Background(), ·).
func (e *Engine) Process(a Alert) (*Decision, error) {
	return e.ProcessContext(context.Background(), a)
}

// ProcessContext is Process bounded by ctx: a context that ends before the
// commit abandons the decision (ErrAbandoned), leaving no trace. When
// graceful degradation is enabled (Config.Fallback), any pipeline failure —
// estimator error, solver error or panic — is converted into a degraded
// decision via the internal/fallback ladder, so the only errors
// ProcessContext can return are structurally invalid alerts (type out of
// range), a journal failure, ErrAbandoned and ErrCycleClosed. Without
// Fallback, pipeline errors propagate.
//
// Budget accounting is identical on every path: the budget is charged
// exactly once, at commit, from the decision's signal-conditional audit
// probability — a degraded decision can never double-charge.
func (e *Engine) ProcessContext(ctx context.Context, a Alert) (*Decision, error) {
	var t0 time.Time
	if e.met.enabled {
		t0 = time.Now()
	}
	if a.Type < 0 || a.Type >= e.inst.NumTypes() {
		return nil, fmt.Errorf("core: alert type %d out of range [0,%d)", a.Type, e.inst.NumTypes())
	}
	d, wait, c, err := e.commit(ctx, a, t0)
	if err != nil {
		return nil, err
	}
	if wait != nil {
		if err := wait(); err != nil {
			return nil, fmt.Errorf("core: journal fsync: %w", err)
		}
	}
	e.met.count(c)
	return d, nil
}

// commit is the decision's critical section: decide at the current budget,
// sample the signal, journal, then charge and record. ctx is the context the
// request arrived with; its end abandons the decision. The returned wait is
// the journal's, and the tally what the commit added to the cycle's counters.
func (e *Engine) commit(ctx context.Context, a Alert, t0 time.Time) (*Decision, func() error, tally, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if err := ctx.Err(); err != nil {
		// Gave up while queued: leave the estimator unasked and rng untouched.
		return nil, nil, tally{}, fmt.Errorf("%w: %w", ErrAbandoned, err)
	}
	if e.closed {
		return nil, nil, tally{}, ErrCycleClosed
	}
	d, err := fallback.Attempt(func() (*Decision, error) { return e.decide(ctx, a) })
	if cerr := ctx.Err(); cerr != nil {
		// The last point a decision can be dropped without a trace: the
		// caller has stopped waiting (request deadline, client gone), so
		// neither a solved nor a degraded decision is committed for it.
		return nil, nil, tally{}, fmt.Errorf("%w: %w", ErrAbandoned, cerr)
	}
	if err != nil {
		if !e.degrade {
			return nil, nil, tally{}, err
		}
		d = e.degraded(a)
	}
	// Sample the signal. The draw is peeked, not consumed — if the journal
	// refuses the record below, nothing commits and the buffered draw is
	// re-used by the next decision, exactly as a crash-recovered engine
	// would sample it.
	switch e.policy {
	case PolicyOSSP:
		d.Warned = e.peekDrawLocked() < d.Scheme.WarnProbability()
		if d.Warned {
			d.AuditCharge = d.Scheme.AuditGivenWarn()
		} else {
			d.AuditCharge = d.Scheme.AuditGivenSilent()
		}
	case PolicySSE:
		d.AuditCharge = d.Theta
	}
	d.BudgetAfter = math.Max(0, e.budget-d.AuditCharge*e.inst.AuditCosts[a.Type])
	// Journal before mutating anything, still under mu so journal order is
	// commit order: a record that never entered the journal is one recovery
	// will never replay, so there must be nothing to undo.
	rec := d.record(uint64(len(e.decisions)))
	var wait func() error
	if e.journal != nil {
		if wait, err = e.journal(rec); err != nil {
			e.met.journalRollbacks.Inc()
			return nil, nil, tally{}, fmt.Errorf("core: journaling decision: %w", err)
		}
	}
	c := e.applyLocked(Record{Kind: KindDecision, Decision: rec}, d)
	if e.met.enabled {
		e.met.decision.ObserveSince(t0)
	}
	return d, wait, c, nil
}

// tally is what one applied record added to the cycle's counters: an access,
// with its alert and warning, or a first quit — and for a decision, whether
// it was vacuous and which fallback rung produced it. The service and
// decision counters move by exactly it (engineMetrics.count), once the
// record is durable.
type tally struct {
	access bool
	Meta
	quit     bool
	decision bool
	vacuous  bool
	fallback fallback.Level
}

// applyLocked is the one writer of the cycle's state: commit, Apply, Replay
// and RestoreState all end here. A decision record is one access and one alert:
// it is appended to the log, moves the budget to its end of the link and
// spends the draw that sampled its signal — already buffered by commit's
// peek, pulled now on replay. A solved one makes its solve the kept one:
// commit passes its decision d, whose equilibrium and estimate (in
// e.scratch) are adopted; replay passes nil and leaves them to
// rebuildLocked. A repeated quit changes nothing. The caller holds e.mu and
// has checked r (checkLocked); the tally returned is what r counted.
func (e *Engine) applyLocked(r Record, d *Decision) (c tally) {
	switch r.Kind {
	case KindDecision:
		e.decisions = append(e.decisions, r.Decision)
		e.budget = math.Max(0, r.Decision.BudgetAfter)
		e.met.budget.Set(e.budget)
		if e.policy == PolicyOSSP {
			e.peekDrawLocked()
			e.consumeDrawLocked()
		}
		switch {
		case r.Decision.Fallback != fallback.None:
		case d == nil:
			e.replayed = true
		default:
			e.lastSSE = d.SSE
			e.futures, e.scratch = e.scratch, e.futures
		}
		r.Meta = Meta{Alerted: true, Warned: r.Decision.Warned}
		c.decision, c.vacuous, c.fallback = true, r.Decision.Vacuous, r.Decision.Fallback
		fallthrough
	case KindMeta:
		e.accesses++
		if r.Meta.Alerted {
			e.alerts++
		}
		if r.Meta.Warned {
			e.warned++
		}
		c.access, c.Meta = true, r.Meta
	case KindQuit:
		if c.quit = e.flag(r.Employee); c.quit {
			e.quits++
		}
	case KindCycleOpen:
		e.budget, e.initial = r.Budget, r.Budget
		e.met.budget.Set(e.budget)
		e.decisions = e.decisions[:0]
		e.lastSSE, e.futures, e.replayed = nil, nil, false
		e.accesses, e.alerts, e.warned, e.quits, e.closed = 0, 0, 0, 0, false
	case KindCycleClose:
		e.closed = true
	}
	return c
}

// flag adds emp to the flagged employees, moving the flagged gauge with them,
// and reports whether it is new. The caller holds e.mu.
func (e *Engine) flag(emp int) bool {
	i, found := slices.BinarySearch(e.flagged, emp)
	if !found {
		e.flagged = slices.Insert(e.flagged, i, emp)
		e.met.flagged.Set(float64(len(e.flagged)))
	}
	return !found
}

// Preview computes the decision the engine would take for a hypothetical
// alert without sampling a signal, charging the budget or changing any
// state: it runs the primary pipeline, but only a commit keeps what a solve
// produced. Used by the adaptive-attacker example and by tests. Preview
// never degrades.
func (e *Engine) Preview(a Alert) (*Decision, error) {
	if a.Type < 0 || a.Type >= e.inst.NumTypes() {
		return nil, fmt.Errorf("core: alert type %d out of range [0,%d)", a.Type, e.inst.NumTypes())
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.decide(context.Background(), a)
}

// estimate asks the estimator for the futures a decision at the given cycle
// offset solves on and builds them in e.scratch, for applyLocked to adopt:
// a fresh estimate, or on ErrKeepEstimate a copy of the kept futures — or,
// before any solved commit this cycle, the rates returned with it. The
// caller holds e.mu.
func (e *Engine) estimate(at time.Duration) ([]dist.Poisson, error) {
	var t0 time.Time
	if e.met.enabled {
		t0 = time.Now()
	}
	rates, err := e.est.FutureRates(at)
	keep := errors.Is(err, ErrKeepEstimate)
	switch {
	case keep && e.futures != nil:
		e.scratch = append(e.scratch[:0], e.futures...)
	case err != nil && !keep:
		return nil, fmt.Errorf("core: estimating future alerts: %w", err)
	default:
		if err := e.checkRates(rates); err != nil {
			return nil, fmt.Errorf("core: estimator: %w", err)
		}
		e.scratch = e.poissons(e.scratch, rates)
	}
	if e.met.enabled {
		e.met.stageEstimate.ObserveSince(t0)
	}
	return e.scratch, nil
}

// checkRates refuses an estimate the engine cannot solve on: one rate per
// type, each a valid Poisson mean. A refused estimate is refused whole.
func (e *Engine) checkRates(rates []float64) error {
	if len(rates) != e.inst.NumTypes() {
		return fmt.Errorf("%d rates for %d types", len(rates), e.inst.NumTypes())
	}
	for i, r := range rates {
		if err := dist.ValidateRate(r); err != nil {
			return fmt.Errorf("type %d: %w", i, err)
		}
	}
	return nil
}

// poissons writes rates, which checkRates has passed, as Poisson futures
// into dst's storage and returns it. A type is rebuilt only when its rate
// differs bitwise from the kept one: κ is a pure function of the rate, so a
// frozen estimate sums no series at all. The caller holds e.mu.
func (e *Engine) poissons(dst []dist.Poisson, rates []float64) []dist.Poisson {
	if cap(dst) < len(rates) {
		dst = make([]dist.Poisson, len(rates))
	}
	dst = dst[:len(rates)]
	for i, r := range rates {
		if i < len(e.futures) && math.Float64bits(r) == math.Float64bits(e.futures[i].Lambda) {
			dst[i] = e.futures[i]
		} else {
			dst[i], _ = dist.NewPoisson(r) // checkRates passed r
		}
	}
	return dst
}

// rebuildLocked derives the kept futures and equilibrium from the cycle log
// after replay: those of its last solved record. It walks the solved records
// back while the estimator answers ErrKeepEstimate — each solved on the
// futures of the one before, the first on the rates returned with the
// sentinel — and solves once at that last record's BudgetBefore. A failure
// leaves replayed set, so the next decision tries again. The caller holds
// e.mu.
func (e *Engine) rebuildLocked(ctx context.Context) error {
	if !e.replayed {
		return nil
	}
	last := -1
	var rates []float64
	for i := len(e.decisions) - 1; i >= 0; i-- {
		r := &e.decisions[i]
		if r.Fallback != fallback.None {
			continue
		}
		if last < 0 {
			last = i
		}
		var err error
		rates, err = e.est.FutureRates(r.Time)
		if errors.Is(err, ErrKeepEstimate) {
			continue
		}
		if err != nil {
			return fmt.Errorf("core: rebuilding the estimate of decision %d: %w", r.Seq, err)
		}
		break
	}
	if last >= 0 {
		if err := e.checkRates(rates); err != nil {
			return fmt.Errorf("core: rebuilding the estimate of decision %d: %w", last, err)
		}
		e.futures = e.poissons(e.futures, rates)
		sse, err := e.sseSolve(ctx, e.inst, e.decisions[last].BudgetBefore, e.futures)
		if err != nil {
			return fmt.Errorf("core: rebuilding the equilibrium of decision %d: %w", last, err)
		}
		e.lastSSE = sse
	}
	e.replayed = false
	return nil
}

// decide runs the primary pipeline for a at the current budget — estimate,
// online SSE, signaling — producing a pre-commit decision. The caller holds
// e.mu and has validated a.Type.
func (e *Engine) decide(ctx context.Context, a Alert) (*Decision, error) {
	if err := e.rebuildLocked(ctx); err != nil {
		return nil, err
	}
	futures, err := e.estimate(a.Time)
	if err != nil {
		return nil, err
	}
	var t0 time.Time
	if e.met.enabled {
		t0 = time.Now()
	}
	sse, err := e.sseSolve(ctx, e.inst, e.budget, futures)
	if err != nil {
		return nil, fmt.Errorf("core: online SSE: %w", err)
	}
	if e.met.enabled {
		e.met.stageSSE.ObserveSince(t0)
		e.met.lpSolves.Add(uint64(sse.Stats.LPSolves))
	}
	return e.decisionFrom(a, sse)
}

// decisionFrom builds the pre-commit decision for a from a solved online
// SSE: θ, the participation-aware utility, whether the SAG engages, and
// under PolicyOSSP the signaling scheme on top. decide passes the
// equilibrium it just solved, lastGoodDecision the cycle's previous one.
func (e *Engine) decisionFrom(a Alert, sse *game.Result) (*Decision, error) {
	d := &Decision{
		Alert:        a,
		BudgetBefore: e.budget,
		BudgetAfter:  e.budget,
		SSE:          sse,
	}
	if sse.BestType == -1 {
		// Degenerate game: nothing is attackable. Utilities are zero and no
		// budget should be spent.
		d.Vacuous = true
		return d, nil
	}
	d.Theta = sse.Coverage[a.Type]
	d.SSEUtility = participationAwareUtility(sse)
	d.AppliedSAG = a.Type == sse.BestType
	// The paper's multi-type protocol: the SAG engages only alerts of the
	// attacker's best-response type; others are handled (and scored) by the
	// online SSE.
	d.OSSPUtility = d.SSEUtility
	if e.policy == PolicySSE {
		return d, nil
	}
	var t0 time.Time
	if e.met.enabled {
		t0 = time.Now()
	}
	scheme, err := signaling.Solve(e.inst.Payoffs[a.Type], d.Theta)
	if err != nil {
		return nil, fmt.Errorf("core: OSSP: %w", err)
	}
	if e.met.enabled {
		e.met.stageSignal.ObserveSince(t0)
	}
	d.Scheme = scheme
	if d.AppliedSAG {
		d.OSSPUtility = scheme.DefenderUtility
	}
	return d, nil
}

// degraded produces a decision for a after the primary pipeline failed:
// the last-good rung if it succeeds, else the static rung, which cannot
// fail. The caller holds e.mu.
func (e *Engine) degraded(a Alert) *Decision {
	d, err := fallback.Attempt(func() (*Decision, error) { return e.lastGoodDecision(a) })
	lvl := fallback.LastGood
	if err != nil {
		d, lvl = e.staticDecision(a), fallback.Static
	}
	d.Fallback = lvl
	return d
}

// lastGoodDecision is the first degraded rung: reuse the θ vector of the
// most recent successfully solved online SSE and re-run only the (cheap)
// signaling stage for the current alert's type. The equilibrium is stale —
// it was solved for an earlier budget — but its coverage remains a feasible
// commitment, and by Theorem 2 signaling on top of it never hurts.
func (e *Engine) lastGoodDecision(a Alert) (*Decision, error) {
	if e.lastSSE == nil {
		return nil, errors.New("core: no previously solved equilibrium this cycle")
	}
	return e.decisionFrom(a, e.lastSSE)
}

// staticDecision is the terminal, infallible rung: audit with probability
// remaining-budget / expected-remaining-audit-cost (clamped to [0,1]) and
// never warn. Never warning is safe — Theorem 2 says the optimal signaling
// scheme only improves on not signaling, so its absence degrades utility,
// never feasibility — and the ratio policy spreads the remaining budget
// uniformly over the expected remaining workload so the engine cannot
// overcommit while degraded.
func (e *Engine) staticDecision(a Alert) *Decision {
	expCost := 0.0
	if e.futures != nil {
		for i, f := range e.futures {
			expCost += f.Lambda * e.inst.AuditCosts[i]
		}
	} else {
		// No successful estimate yet this cycle: budget for this alert alone.
		expCost = e.inst.AuditCosts[a.Type]
	}
	p := fallback.StaticAuditProbability(e.budget, expCost)
	pf := e.inst.Payoffs[a.Type]
	util := p*pf.DefenderCovered + (1-p)*pf.DefenderUncovered
	d := &Decision{
		Alert:        a,
		BudgetBefore: e.budget,
		BudgetAfter:  e.budget,
		Theta:        p,
		SSEUtility:   util,
		OSSPUtility:  util,
		// Never warn: all probability mass on the silent signal, split
		// between audit (P0) and no-audit (Q0) by the static coverage.
		Scheme: signaling.Scheme{
			P0:              p,
			Q0:              1 - p,
			DefenderUtility: util,
			AttackerUtility: p*pf.AttackerCovered + (1-p)*pf.AttackerUncovered,
		},
	}
	return d
}

// participationAwareUtility converts the LP (2) objective into the
// auditor's actual expected utility, accounting for the attacker's option
// to stay out: a strictly unprofitable best response means no attack (both
// sides get 0); exact indifference breaks in the auditor's favor per the
// strong-SSE convention.
func participationAwareUtility(sse *game.Result) float64 {
	const tol = 1e-9
	switch {
	case sse.AttackerUtility < -tol:
		return 0
	case sse.AttackerUtility <= tol:
		return math.Max(0, sse.DefenderUtility)
	default:
		return sse.DefenderUtility
	}
}

// AuditOutcome is the end-of-cycle retrospective decision for one
// processed alert.
type AuditOutcome struct {
	// Index is the position of the alert in Decisions().
	Index int
	// Audited reports whether the retrospective audit actually inspects
	// this alert.
	Audited bool
	// Cost is the audit cost charged if Audited (the type's V), 0
	// otherwise.
	Cost float64
}

// CloseCycle applies a KindCycleClose record as Apply does and draws the
// retrospective audit plan in the same hold of the budget lock, so no
// decision lands between the draw and the close. Each alert is audited with
// its signal-conditional audit probability (the probability the budget was
// charged for in real time), drawn from an rng seeded with seed ^ accesses,
// so a close retried after a failed journal write draws the same plan. It
// returns one outcome per recorded decision plus the realized total audit
// cost, which concentrates around the charged budget but is not capped by
// it — the paper's budget dynamics are in expectation.
func (e *Engine) CloseCycle(seed int64, journal func(Record) (wait func() error, err error)) (audits []AuditOutcome, total float64, err error) {
	err = e.Apply(Record{Kind: KindCycleClose}, func(r Record) (func() error, error) {
		rng := rand.New(rand.NewSource(seed ^ e.accesses))
		audits = make([]AuditOutcome, len(e.decisions))
		for i, d := range e.decisions {
			audits[i] = AuditOutcome{Index: i}
			if d.Vacuous {
				continue
			}
			if rng.Float64() < d.AuditCharge {
				cost := e.inst.AuditCosts[d.Type]
				audits[i].Audited = true
				audits[i].Cost = cost
				total += cost
			}
		}
		if journal == nil {
			return nil, nil
		}
		return journal(r)
	})
	if err != nil {
		return nil, 0, err
	}
	return audits, total, nil
}

// CycleSummary aggregates a finished cycle for reporting.
type CycleSummary struct {
	Alerts          int
	Warnings        int
	SAGEngaged      int     // alerts where the OSSP actually applied
	BudgetSpent     float64 // initial − remaining
	MeanSSEUtility  float64
	MeanOSSPUtility float64
	FinalSSE        float64 // utility at the last alert (end-of-day health)
	FinalOSSP       float64
}

// Summary aggregates the decisions recorded so far.
func (e *Engine) Summary() CycleSummary {
	e.mu.Lock()
	defer e.mu.Unlock()
	s := CycleSummary{
		Alerts:      len(e.decisions),
		BudgetSpent: e.initial - e.budget,
	}
	if s.Alerts == 0 {
		return s
	}
	var sse, ossp dist.Running
	for _, d := range e.decisions {
		if d.Warned {
			s.Warnings++
		}
		if d.AppliedSAG {
			s.SAGEngaged++
		}
		sse.Add(d.SSEUtility)
		ossp.Add(d.OSSPUtility)
	}
	last := e.decisions[len(e.decisions)-1]
	s.MeanSSEUtility = sse.Mean()
	s.MeanOSSPUtility = ossp.Mean()
	s.FinalSSE = last.SSEUtility
	s.FinalOSSP = last.OSSPUtility
	return s
}
