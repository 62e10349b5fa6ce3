// Package sag is the public API of the Signaling Audit Game library, a
// faithful reproduction of "To Warn or Not to Warn: Online Signaling in
// Audit Games" (Yan, Xu, Vorobeychik, Li, Fabbri, Malin; ICDE 2020).
//
// # The model
//
// An auditor monitors an information system that triggers typed alerts on
// suspicious accesses (e.g. an employee opening the record of someone with
// the same last name). She can audit only B alerts per cycle. For each
// arriving alert she decides in real time (1) whether to pop a warning
// ("this access may be investigated — proceed?") and (2) the joint
// probability of auditing the alert conditioned on the signal sent. A
// rational attacker observes the committed policy; warned, he best-responds
// by quitting whenever the conditional audit probability makes the attack
// unprofitable.
//
// # The pipeline
//
// Each alert flows through three stages, all exposed here:
//
//   - SolveOnlineSSE — the Strong Stackelberg Equilibrium of the audit game
//     given the remaining budget and Poisson estimates of future alerts
//     (the paper's LP (2)); its marginal audit probabilities θ are also the
//     OSSP marginals (Theorem 1).
//   - SolveOSSP — the Online Stackelberg Signaling Policy for one alert at
//     marginal θ (the paper's LP (3), solved in closed form): the joint
//     distribution over {warn, silent} × {audit, skip}.
//   - Engine — the online loop tying both together with budget pacing and
//     the knowledge-rollback estimator.
//
// # Quick start
//
//	pf := sag.Table2Payoffs()[1]            // "Same Last Name"
//	scheme, _ := sag.SolveOSSP(pf, 0.10)    // audit 10% of these alerts
//	fmt.Println(scheme.WarnProbability())   // how often to pop the dialog
//
// See examples/ for full end-to-end programs and internal/experiments for
// the code that regenerates every table and figure of the paper.
package sag

import (
	"time"

	"github.com/auditgames/sag/internal/core"
	"github.com/auditgames/sag/internal/dist"
	"github.com/auditgames/sag/internal/fallback"
	"github.com/auditgames/sag/internal/game"
	"github.com/auditgames/sag/internal/history"
	"github.com/auditgames/sag/internal/payoff"
	"github.com/auditgames/sag/internal/signaling"
)

// Re-exported core types. The aliases keep godoc in one place while the
// implementations live in focused internal packages.
type (
	// Payoff holds the four per-type utilities U_{d,c}, U_{d,u}, U_{a,c},
	// U_{a,u} (see payoff sign conventions in Validate).
	Payoff = payoff.Payoff

	// Scheme is a joint signaling/audit distribution for one alert: the
	// probabilities P(warn,audit), P(warn,skip), P(silent,audit),
	// P(silent,skip) plus the equilibrium utilities they induce.
	Scheme = signaling.Scheme

	// Instance is an audit game: payoffs and audit costs per alert type.
	Instance = game.Instance

	// SSEResult is a Strong Stackelberg Equilibrium: coverage vector,
	// budget allocation, best-response type, and both players' utilities.
	SSEResult = game.Result

	// Alert is one triggered alert: its type index and time of day.
	Alert = core.Alert

	// Decision is everything the engine did for one alert, solver artifacts
	// included; Process hands it to its caller and does not keep it.
	Decision = core.Decision

	// DecisionRecord is what the engine keeps (and journals) of a committed
	// decision; Engine.Decisions returns the cycle's records.
	DecisionRecord = core.DecisionRecord

	// Engine is the online SAG loop (one instance per audit cycle). It is
	// safe for concurrent use; decisions on one Engine are sequential, as
	// in the paper — each is estimated, solved and committed under the
	// engine's budget lock.
	Engine = core.Engine

	// EngineConfig assembles an Engine.
	EngineConfig = core.Config

	// Estimator supplies expected future alert volumes to the engine. Its
	// answer is a function of the query offset alone (ErrKeepEstimate
	// holds the engine's estimate); it is queried under the engine's budget
	// lock and must not call back into the Engine.
	Estimator = core.Estimator

	// EstimatorFunc adapts a function to the Estimator interface.
	EstimatorFunc = core.EstimatorFunc

	// Policy selects OSSP (signaling) or the plain online-SSE baseline.
	Policy = core.Policy

	// CycleSummary aggregates one finished audit cycle.
	CycleSummary = core.CycleSummary

	// Poisson is the future-alert-count distribution used by the solvers.
	Poisson = dist.Poisson

	// HistoryRecord is one historical alert used to fit arrival curves.
	HistoryRecord = history.Record

	// Curves estimates future alert volumes from historical records.
	Curves = history.Curves

	// Rollback wraps Curves with the paper's knowledge-rollback rule.
	Rollback = history.Rollback

	// RateRollback is the rate-triggered variant of the rollback rule
	// (freeze when arrivals-per-window fall below the threshold).
	RateRollback = history.RateRollback

	// AuditOutcome is an end-of-cycle retrospective audit decision.
	AuditOutcome = core.AuditOutcome

	// FallbackLevel records how a Decision was produced when the engine's
	// graceful degradation is enabled (EngineConfig.Fallback): FallbackNone
	// for the primary pipeline, or the ladder rung — last-good equilibrium,
	// static never-warn policy — that answered after the pipeline failed
	// (estimator error, solver error or panic). A context that ends first
	// abandons the decision instead; nothing on the decision path times out.
	FallbackLevel = fallback.Level

	// SSESolveFunc is the engine's injectable online-SSE solver signature
	// (EngineConfig.SSESolve); used for fault injection and solver
	// substitution. Like the Estimator it runs under the engine's budget
	// lock and must not call back into the Engine.
	SSESolveFunc = core.SSESolveFunc
)

// Policies.
const (
	// PolicyOSSP enables optimal online signaling (the paper's SAG).
	PolicyOSSP = core.PolicyOSSP
	// PolicySSE disables signaling (the online SSE baseline).
	PolicySSE = core.PolicySSE
)

// Fallback ladder rungs, ordered by decreasing fidelity.
const (
	// FallbackNone marks a fully solved decision.
	FallbackNone = fallback.None
	// FallbackLastGood reused the last successfully solved equilibrium's
	// coverage and re-ran only the signaling stage.
	FallbackLastGood = fallback.LastGood
	// FallbackStatic fell back to the conservative static policy: audit
	// with probability remaining-budget / expected-remaining-cost, never
	// warn (Theorem 2 makes the missing signal safe, merely suboptimal).
	FallbackStatic = fallback.Static
)

// ErrKeepEstimate is an Estimator's answer for "the estimate has not
// moved": the engine solves on the estimate of its last solved decision.
var ErrKeepEstimate = core.ErrKeepEstimate

// DefaultRollbackThreshold is the knowledge-rollback threshold the paper
// uses (4 expected future alerts).
const DefaultRollbackThreshold = history.DefaultRollbackThreshold

// NewInstance builds an audit game from per-type payoffs and audit costs.
func NewInstance(payoffs []Payoff, auditCosts []float64) (*Instance, error) {
	return game.NewInstance(payoffs, auditCosts)
}

// UniformCost returns a cost vector with every type costing c to audit.
func UniformCost(numTypes int, c float64) []float64 {
	return game.UniformCost(numTypes, c)
}

// NewEngine builds the online SAG engine for one audit cycle.
func NewEngine(cfg EngineConfig) (*Engine, error) { return core.NewEngine(cfg) }

// SolveOnlineSSE computes the online Strong Stackelberg Equilibrium given
// the remaining budget and per-type Poisson future-alert distributions
// (the paper's LP (2), solved in closed form).
func SolveOnlineSSE(inst *Instance, budget float64, futures []Poisson) (*SSEResult, error) {
	return game.SolveOnlineSSE(inst, budget, futures)
}

// SolveOfflineSSE computes the offline baseline over fixed full-cycle alert
// counts (the flat lines of the paper's Figures 2–3).
func SolveOfflineSSE(inst *Instance, budget float64, counts []float64) (*SSEResult, error) {
	return game.SolveOfflineSSE(inst, budget, counts)
}

// SolveOSSP computes the Online Stackelberg Signaling Policy for one alert
// whose type has the given payoffs and marginal audit probability theta.
// It is LP (3) in closed form for every valid payoff: the paper's Theorem 3
// scheme (p0 = 0) when its payoff condition holds, and otherwise the vertex
// that audits silently as far as the attacker's participation allows.
func SolveOSSP(pf Payoff, theta float64) (Scheme, error) {
	return signaling.Solve(pf, theta)
}

// SolveOSSPLP computes the OSSP by solving LP (3) with the simplex (slower;
// the differential oracle for SolveOSSP).
func SolveOSSPLP(pf Payoff, theta float64) (Scheme, error) {
	return signaling.SolveLP(pf, theta)
}

// Table2Payoffs returns the paper's Table 2 payoff structures, indexed by
// alert type ID 1..7 (index 0 unused).
func Table2Payoffs() [8]Payoff { return payoff.Table2() }

// ---- Extensions (the paper's future-work directions, implemented) ----

type (
	// AttackerType is one attacker type in the Bayesian SAG extension:
	// prior probability plus private covered/uncovered utilities.
	AttackerType = signaling.AttackerType

	// DefenderSide is the auditor's (public) side of the payoff matrix,
	// used by the Bayesian solver.
	DefenderSide = signaling.DefenderSide

	// BayesianScheme is the optimal scheme against a type-uncertain
	// attacker, with each type's induced behavior.
	BayesianScheme = signaling.BayesianScheme

	// ResourceClass is one kind of audit capacity in the multi-resource
	// game (own budget, capability mask, cost multiplier).
	ResourceClass = game.ResourceClass

	// ResourceResult is the equilibrium of the multi-resource audit game.
	ResourceResult = game.ResourceResult
)

// SolveBayesianOSSP computes the optimal signaling scheme when the
// attacker's payoffs are private, drawn from a known prior over finitely
// many types (the Bayesian SAG the paper's conclusions propose).
func SolveBayesianOSSP(def DefenderSide, types []AttackerType, theta float64) (BayesianScheme, error) {
	return signaling.SolveBayesian(def, types, theta)
}

// SolveRobustOSSP computes the ε-robust OSSP: a boundedly rational
// attacker quits after a warning only when proceeding is worse than
// quitting by at least margin epsilon (the robust SAG the paper's
// conclusions call for). It accepts every valid payoff; epsilon = 0
// recovers SolveOSSP.
func SolveRobustOSSP(pf Payoff, theta, epsilon float64) (Scheme, error) {
	return signaling.SolveRobust(pf, theta, epsilon)
}

// RobustnessPremium reports the auditor utility a robustness margin costs
// relative to the exact OSSP at the same θ (always ≥ 0).
func RobustnessPremium(pf Payoff, theta, epsilon float64) (float64, error) {
	return signaling.RobustnessPremium(pf, theta, epsilon)
}

// SolveResourceSSE computes the online SSE with multiple defender resource
// classes (per-class budgets, capability masks, cost multipliers) — the
// multi-resource generalization of Blocki et al. that the paper builds on.
func SolveResourceSSE(inst *Instance, classes []ResourceClass, futures []Poisson) (*ResourceResult, error) {
	return game.SolveResourceSSE(inst, classes, futures)
}

// NewCurves fits per-type arrival curves from historical alert records
// (numDays days, types 0..numTypes-1).
func NewCurves(recs []HistoryRecord, numTypes, numDays int) (*Curves, error) {
	return history.NewCurves(recs, numTypes, numDays)
}

// NewRollback wraps arrival curves with the paper's knowledge-rollback
// stabilizer at the given threshold.
func NewRollback(curves *Curves, threshold float64) (*Rollback, error) {
	return history.NewRollback(curves, threshold)
}

// NewRateRollback wraps arrival curves with the rate-triggered rollback
// variant: freeze once the expected arrivals inside the window drop below
// the threshold. Pass window <= 0 for the one-hour default.
func NewRateRollback(curves *Curves, threshold float64, window time.Duration) (*RateRollback, error) {
	return history.NewRateRollback(curves, threshold, window)
}
