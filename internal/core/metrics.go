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
	MetricDecisionsTotal = "sag_engine_decisions_total"
	// MetricVacuousTotal counts decisions where no type was attackable.
	MetricVacuousTotal = "sag_engine_vacuous_total"
	// MetricBudgetRemaining is a gauge of the cycle's remaining budget.
	MetricBudgetRemaining = "sag_engine_budget_remaining"
	// MetricLPSolvesTotal counts candidate best-response problems of LP (2)
	// solved by the SSE stage (one per attackable type per solve).
	MetricLPSolvesTotal = "sag_engine_lp_solves_total"
	// MetricFallbackTotal counts degraded decisions, labeled by the ladder
	// rung that produced them (level=last_good|static).
	MetricFallbackTotal = "sag_engine_fallback_total"
	// MetricJournalRollbacksTotal counts decisions that did not commit
	// because their journal record could not be enqueued: nothing is
	// charged or recorded, and the sampled signal draw is kept buffered so
	// the RNG stream stays aligned with what crash recovery would replay.
	MetricJournalRollbacksTotal = "sag_engine_journal_rollbacks_total"
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
	}
}

const fallbackHelp = "Degraded decisions by fallback ladder rung."
