package core

import (
	"github.com/auditgames/sag/internal/fallback"
	"github.com/auditgames/sag/internal/obs"
)

// Engine metric names, exported so operators and tests share one spelling.
const (
	// MetricStageSeconds is a histogram of per-stage decision latency,
	// labeled stage=estimate|sse|signal.
	MetricStageSeconds = "sag_engine_stage_seconds"
	// MetricDecisionSeconds is a histogram of whole-decision latency
	// (all stages of one Process call).
	MetricDecisionSeconds = "sag_engine_decision_seconds"
	// MetricDecisionsTotal counts committed decisions, labeled by policy.
	// It, MetricVacuousTotal and MetricFallbackTotal are read off the applied
	// decision record and move with the service counters below, by their
	// rule.
	MetricDecisionsTotal = "sag_engine_decisions_total"
	// MetricVacuousTotal counts decisions where no type was attackable.
	MetricVacuousTotal = "sag_engine_vacuous_total"
	// MetricBudgetRemaining is a gauge of the cycle's remaining budget.
	MetricBudgetRemaining = "sag_engine_budget_remaining"
	// MetricLPSolvesTotal counts candidate best-response problems of LP (2)
	// solved by the SSE stage (one per attackable type per solve). It counts
	// work, so it moves at the solve, whether or not a decision commits
	// (Preview, an abandoned or refused decision).
	MetricLPSolvesTotal = "sag_engine_lp_solves_total"
	// MetricFallbackTotal counts degraded decisions, labeled by the ladder
	// rung that produced them (level=last_good|static).
	MetricFallbackTotal = "sag_engine_fallback_total"
	// MetricJournalRollbacksTotal counts decisions that did not commit
	// because their journal record could not be enqueued: nothing is
	// charged or recorded, and the sampled signal draw is kept buffered so
	// the RNG stream stays aligned with what crash recovery would replay. It
	// counts refusals, so it moves at the refusal.
	MetricJournalRollbacksTotal = "sag_engine_journal_rollbacks_total"
	// MetricAccessesTotal / MetricAlertsTotal / MetricWarnedTotal /
	// MetricQuitsTotal are cumulative service counters. They move by what the
	// cycle's own counters do (a quit only when it flagged the employee), once
	// the record is applied and its journal wait returned nil; a refused
	// record moves none, and neither does replay. Unlike the cycle's counters
	// they do NOT reset on cycle rollover: Prometheus counters are
	// forever-cumulative by convention and rates are taken with range queries.
	MetricAccessesTotal = "sag_server_accesses_total"
	MetricAlertsTotal   = "sag_server_alerts_total"
	MetricWarnedTotal   = "sag_server_warned_total"
	MetricQuitsTotal    = "sag_server_quits_total"
	// MetricFlaggedUsers gauges the number of currently flagged employees.
	MetricFlaggedUsers = "sag_server_flagged_users"
)

// engineMetrics holds the engine's pre-resolved instruments. The zero value
// (enabled=false, all instruments nil) disables collection: every record
// call is a nil-receiver no-op and the hot path skips its time.Now() calls.
type engineMetrics struct {
	enabled       bool
	stageEstimate *obs.Histogram
	stageSSE      *obs.Histogram
	stageSignal   *obs.Histogram
	decision      *obs.Histogram
	decisions     *obs.Counter
	vacuous       *obs.Counter
	budget        *obs.Gauge
	lpSolves      *obs.Counter

	fallbackLastGood *obs.Counter
	fallbackStatic   *obs.Counter

	journalRollbacks *obs.Counter

	accesses, alerts, warned, quits *obs.Counter
	flagged                         *obs.Gauge
}

// count moves the service and decision counters by what one applied record
// added to the cycle's counters.
func (m *engineMetrics) count(t tally) {
	if t.decision {
		m.decisions.Inc()
		m.fallbackCounter(t.fallback).Inc()
		if t.vacuous {
			m.vacuous.Inc()
		}
	}
	if t.access {
		m.accesses.Inc()
	}
	if t.Alerted {
		m.alerts.Inc()
	}
	if t.Warned {
		m.warned.Inc()
	}
	if t.quit {
		m.quits.Inc()
	}
}

// fallbackCounter maps a degraded level to its labeled counter (nil, hence a
// no-op, for fallback.None or when metrics are disabled).
func (m *engineMetrics) fallbackCounter(lvl fallback.Level) *obs.Counter {
	switch lvl {
	case fallback.LastGood:
		return m.fallbackLastGood
	case fallback.Static:
		return m.fallbackStatic
	default:
		return nil
	}
}

// newEngineMetrics resolves the engine's instruments in reg. The variadic
// extra labels (Config.MetricLabels) are stamped on every counter and gauge —
// a multi-tenant deployment passes tenant="<id>" so each tenant engine exports
// its own series in one shared registry; with no extras the series names are
// exactly the unlabeled single-tenant ones. The latency histograms never carry
// them: how long a solve takes is a property of the solver, not of the tenant,
// and a histogram is 18 series where a counter is one.
func newEngineMetrics(reg *obs.Registry, policy Policy, extra ...obs.Label) engineMetrics {
	if reg == nil {
		return engineMetrics{}
	}
	// with builds a fresh label slice per instrument: appending to the shared
	// extra slice directly could alias one backing array across instruments.
	with := func(ls ...obs.Label) []obs.Label {
		out := make([]obs.Label, 0, len(extra)+len(ls))
		out = append(out, extra...)
		return append(out, ls...)
	}
	const stageHelp = "Per-stage SAG decision latency in seconds."
	return engineMetrics{
		enabled:       true,
		stageEstimate: reg.Histogram(MetricStageSeconds, stageHelp, obs.DefTimeBuckets, obs.L("stage", "estimate")),
		stageSSE:      reg.Histogram(MetricStageSeconds, stageHelp, obs.DefTimeBuckets, obs.L("stage", "sse")),
		stageSignal:   reg.Histogram(MetricStageSeconds, stageHelp, obs.DefTimeBuckets, obs.L("stage", "signal")),
		decision:      reg.Histogram(MetricDecisionSeconds, "Whole-decision SAG latency in seconds.", obs.DefTimeBuckets),
		decisions:     reg.Counter(MetricDecisionsTotal, "Committed engine decisions.", with(obs.L("policy", policy.String()))...),
		vacuous:       reg.Counter(MetricVacuousTotal, "Decisions where no alert type was attackable.", with()...),
		budget:        reg.Gauge(MetricBudgetRemaining, "Remaining audit budget for the current cycle.", with()...),
		lpSolves:      reg.Counter(MetricLPSolvesTotal, "Candidate best-response problems of LP (2) solved by the online SSE stage.", with()...),

		fallbackLastGood: reg.Counter(MetricFallbackTotal, fallbackHelp, with(obs.L("level", fallback.LastGood.String()))...),
		fallbackStatic:   reg.Counter(MetricFallbackTotal, fallbackHelp, with(obs.L("level", fallback.Static.String()))...),

		journalRollbacks: reg.Counter(MetricJournalRollbacksTotal, "Decisions refused because their journal record could not be enqueued.", with()...),

		accesses: reg.Counter(MetricAccessesTotal, "Access requests evaluated.", with()...),
		alerts:   reg.Counter(MetricAlertsTotal, "Accesses on which a detection rule fired.", with()...),
		warned:   reg.Counter(MetricWarnedTotal, "Accesses answered with a warning.", with()...),
		quits:    reg.Counter(MetricQuitsTotal, "Warned accesses reported abandoned.", with()...),
		flagged:  reg.Gauge(MetricFlaggedUsers, "Employees currently flagged as quitters.", with()...),
	}
}

const fallbackHelp = "Degraded decisions by fallback ladder rung."
