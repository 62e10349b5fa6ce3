// Package fallback implements the engine's graceful-degradation ladder.
//
// The paper's whole premise is that the warn/audit decision happens online,
// while the access is in flight (§1, §6.6): a solver error is not an
// inconvenience, it is "no decision at the moment of access". This
// package therefore turns every failure of the primary SAG pipeline into a
// deliberately degraded — but always produced — decision, descending a fixed
// ladder:
//
//	Level 0 (None)     the primary pipeline succeeded
//	Level 2 (LastGood) re-run the signaling stage on the last successfully
//	                   solved θ vector
//	Level 3 (Static)   a conservative static policy: audit with probability
//	                   remaining-budget / expected-remaining-cost, never warn
//
// Level 1 was the decision-cache rung. The cache is gone and nothing produces
// the level any more, but journals store a Level as a byte, so the number
// stays reserved and the other levels keep theirs.
//
// The never-warn choice at the bottom rung is justified by Theorem 2
// ("signaling never hurts" — equivalently, not signaling is the worst case
// the OSSP already dominates): silence plus a marginal audit probability is
// exactly the no-signaling SSE posture, so the static rung degrades to the
// paper's baseline game rather than to undefined behavior.
//
// The engine in internal/core walks the two rungs itself; this package holds
// what they share: the Level, panic containment (Attempt) — so an LP
// degeneracy or injected fault (internal/faultinject) can never escape a
// rung — and the static rung's audit probability.
package fallback

import (
	"fmt"
	"math"
)

// Level identifies how far down the degradation ladder a decision was
// produced. The zero value None means the primary pipeline succeeded.
type Level int

const (
	// None is the primary pipeline: no degradation.
	None Level = 0
	// retiredCache is only ever read back from a journal written while the
	// decision cache existed.
	retiredCache Level = 1
	// LastGood re-ran the signaling stage against the last successfully
	// solved θ vector.
	LastGood Level = 2
	// Static applied the conservative static policy (audit with probability
	// budget-remaining / expected-remaining-cost, never warn).
	Static Level = 3
)

// String returns the metric-label spelling of the level, used as the
// `level` label of sag_engine_fallback_total.
func (l Level) String() string {
	switch l {
	case None:
		return "none"
	case retiredCache:
		return "cache"
	case LastGood:
		return "last_good"
	case Static:
		return "static"
	default:
		return fmt.Sprintf("Level(%d)", int(l))
	}
}

// Degraded reports whether the level is anything but the primary pipeline.
func (l Level) Degraded() bool { return l != None }

// Attempt runs try, converting a panic into an error so callers can treat
// "the solver blew up" and "the solver returned an error" identically.
func Attempt[T any](try func() (T, error)) (out T, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("fallback: recovered panic: %v", r)
		}
	}()
	return try()
}

// StaticAuditProbability is the bottom rung's audit probability: spend the
// remaining budget evenly over the expected remaining audit cost,
//
//	p = clamp01(remaining / expectedRemainingCost).
//
// Degenerate inputs resolve conservatively: no budget means never audit;
// budget with no expected future cost means audit surely (there is nothing
// to save the budget for). NaN inputs yield 0 — charging budget on garbage
// would double-count against later, healthier decisions.
func StaticAuditProbability(remaining, expectedRemainingCost float64) float64 {
	if math.IsNaN(remaining) || math.IsNaN(expectedRemainingCost) || remaining <= 0 {
		return 0
	}
	if expectedRemainingCost <= 0 {
		return 1
	}
	p := remaining / expectedRemainingCost
	if p > 1 {
		return 1
	}
	return p
}
