package core

import (
	"errors"
	"fmt"
	"math"
	"time"

	"github.com/auditgames/sag/internal/fallback"
	"github.com/auditgames/sag/internal/game"
)

// DecisionRecord is the one form of a committed decision: what the journal
// gets, what a snapshot carries and what the engine's cycle log holds — every
// field the budget chain, the RNG position, the cycle summary and the
// end-of-cycle audit need. It deliberately omits the solver artifacts (the
// full SSE result, the signaling scheme): those are pure functions of the
// game state and stay on the Decision handed to Process's caller.
type DecisionRecord struct {
	// Seq is the decision's position in the cycle (0-based commit order).
	Seq uint64
	// Type and Time identify the alert.
	Type int
	Time time.Duration
	// Warned is the sampled signal — persisted, not re-sampled, on replay,
	// which is what makes recovery bit-identical.
	Warned     bool
	Vacuous    bool
	AppliedSAG bool
	Fallback   fallback.Level
	Theta      float64
	// AuditCharge is the signal-conditional audit probability the budget
	// was charged for; replay recharges exactly it.
	AuditCharge  float64
	BudgetBefore float64
	BudgetAfter  float64
	SSEUtility   float64
	OSSPUtility  float64
}

// JournalFunc is the engine's durability hook. When configured, it is
// invoked under the engine's budget lock immediately before each decision
// commits — so invocation order is exactly commit order, which is exactly
// budget-chain order. The hook must only enqueue (no I/O waits, no locks
// ordered before the engine's): group-commit journals buffer the record and
// return a wait. ProcessContext invokes the returned wait (if non-nil)
// after releasing the lock and before returning, so the response is not
// produced until the record is as durable as the journal's policy promises.
//
// An enqueue error is returned to the Process caller and the decision does
// not commit: budget, decisions and the consumed-draw count are untouched,
// so the engine still matches what the journal holds.
type JournalFunc func(rec DecisionRecord) (wait func() error, err error)

// record converts a decision to its durable form at position seq of the
// cycle's commit order.
func (d *Decision) record(seq uint64) DecisionRecord {
	return DecisionRecord{
		Seq:          seq,
		Type:         d.Alert.Type,
		Time:         d.Alert.Time,
		Warned:       d.Warned,
		Vacuous:      d.Vacuous,
		AppliedSAG:   d.AppliedSAG,
		Fallback:     d.Fallback,
		Theta:        d.Theta,
		AuditCharge:  d.AuditCharge,
		BudgetBefore: d.BudgetBefore,
		BudgetAfter:  d.BudgetAfter,
		SSEUtility:   d.SSEUtility,
		OSSPUtility:  d.OSSPUtility,
	}
}

// SSEState is the durable subset of a game.Result that the degraded
// last-good rung consults: the committed coverage vector, the attacker's
// best response, and both equilibrium utilities.
type SSEState struct {
	Coverage        []float64 `json:"coverage"`
	BestType        int       `json:"best_type"`
	DefenderUtility float64   `json:"defender_utility"`
	AttackerUtility float64   `json:"attacker_utility"`
}

// EngineState is a point-in-time export of the engine's mutable cycle
// state: what a fresh engine (same Config, same seed, a fresh estimator)
// needs to continue the cycle bit-identically, less what RestoreState
// rebuilds by asking the estimator again. It is the payload of WAL snapshot
// records.
type EngineState struct {
	Budget  float64 `json:"budget"`
	Initial float64 `json:"initial"`
	// RNGDraws counts the Float64 draws consumed from the engine's RNG
	// stream; restore fast-forwards a freshly seeded RNG past them so the
	// next sampled signal lands on the same draw it would have uninterrupted.
	RNGDraws  uint64           `json:"rng_draws"`
	Decisions []DecisionRecord `json:"decisions"`
	LastSSE   *SSEState        `json:"last_sse,omitempty"`
}

// ExportState captures the engine's mutable cycle state. It is a consistent
// snapshot: taken under the budget lock, so it never observes a half-
// committed decision. Callers must externally ensure no decision commits
// between the export and whatever journal position the snapshot is written
// at (the server drains in-flight requests first).
func (e *Engine) ExportState() EngineState {
	e.mu.Lock()
	defer e.mu.Unlock()
	st := EngineState{
		Budget:   e.budget,
		Initial:  e.initial,
		RNGDraws: e.rngDraws,
		// Never nil: an empty log is "decisions":[] in the snapshot JSON.
		Decisions: append([]DecisionRecord{}, e.decisions...),
	}
	if e.lastSSE != nil {
		st.LastSSE = &SSEState{
			Coverage:        append([]float64(nil), e.lastSSE.Coverage...),
			BestType:        e.lastSSE.BestType,
			DefenderUtility: e.lastSSE.DefenderUtility,
			AttackerUtility: e.lastSSE.AttackerUtility,
		}
	}
	return st
}

// RestoreState loads an exported state into a freshly constructed engine.
// The engine must be pristine — same Config and RNG seed as the exporter,
// no decisions processed — because restore fast-forwards the RNG stream
// from its seed position and rebuilds the budget chain from zero. Restoring
// onto a used engine is an error, not a merge. Each decision is replayed by
// ApplyDecision's rule, so the estimator's memory and the kept rates are
// rebuilt, not restored; the futures are built once, from the last estimate
// the rule keeps.
func (e *Engine) RestoreState(st EngineState) error {
	if st.Budget < 0 || math.IsNaN(st.Budget) || math.IsInf(st.Budget, 0) {
		return fmt.Errorf("core: restoring invalid budget %g", st.Budget)
	}
	for i, r := range st.Decisions {
		if uint64(i) != r.Seq {
			return fmt.Errorf("core: restoring decision out of order: seq %d at index %d", r.Seq, i)
		}
		if r.Type < 0 || r.Type >= e.inst.NumTypes() {
			return fmt.Errorf("core: restoring decision %d: type %d out of range [0,%d)", i, r.Type, e.inst.NumTypes())
		}
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if len(e.decisions) != 0 || e.rngDraws != 0 || e.hasPending {
		return errors.New("core: RestoreState requires a fresh engine")
	}
	e.decisions = make([]DecisionRecord, 0, len(st.Decisions))
	var last []float64
	for _, r := range st.Decisions {
		rates, err := e.requery(r)
		if err != nil {
			return err
		}
		if rates != nil {
			// Copied: an estimator may reuse the slice it answers with.
			last = append(last[:0], rates...)
		}
		e.applyLocked(r)
	}
	if last != nil {
		e.keepFutures(last)
	}
	// Each restored decision spent its draw in applyLocked; burn the draws of
	// earlier cycles too, so the next decision samples the draw it would have
	// seen uninterrupted.
	for e.policy == PolicyOSSP && e.rngDraws < st.RNGDraws {
		e.rng.Float64()
		e.rngDraws++
	}
	e.budget, e.initial = st.Budget, st.Initial
	e.met.budget.Set(e.budget)
	if st.LastSSE != nil {
		e.lastSSE = &game.Result{
			Coverage:        append([]float64(nil), st.LastSSE.Coverage...),
			BestType:        st.LastSSE.BestType,
			DefenderUtility: st.LastSSE.DefenderUtility,
			AttackerUtility: st.LastSSE.AttackerUtility,
		}
	}
	return nil
}

// ApplyDecision replays one journaled decision onto the engine during
// recovery: it re-applies the budget charge and the recorded signal without
// re-solving or re-sampling — the record is the committed truth. One RNG
// draw is burned (the draw the original commit consumed) so the stream
// stays aligned, and the estimator is asked again, as requery describes, so
// a stateful estimator (knowledge rollback) and the kept rates end where the
// live engine left them. Records must be applied in journal order.
func (e *Engine) ApplyDecision(r DecisionRecord) error {
	if r.Type < 0 || r.Type >= e.inst.NumTypes() {
		return fmt.Errorf("core: replaying decision: type %d out of range [0,%d)", r.Type, e.inst.NumTypes())
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if want := uint64(len(e.decisions)); r.Seq != want {
		return fmt.Errorf("core: replaying decision out of order: seq %d, want %d", r.Seq, want)
	}
	rates, err := e.requery(r)
	if err != nil {
		return err
	}
	if rates != nil {
		e.keepFutures(rates)
	}
	e.applyLocked(r)
	return nil
}

// requery asks the estimator for r's offset again, as the live decide did
// before every commit — whatever rung answered — and returns the validated
// rates. A query that errs, panics or answers invalid rates fails replay for
// a solved record, whose live query succeeded: the estimator lost state. For
// a degraded record it returns nil and no error: the live query may have
// failed the same way, and then the live engine kept its previous rates.
// The caller holds e.mu.
func (e *Engine) requery(r DecisionRecord) ([]float64, error) {
	rates, err := fallback.Attempt(func() ([]float64, error) { return e.est.FutureRates(r.Time) })
	if err == nil {
		err = e.checkRates(rates)
	}
	switch {
	case err == nil:
		return rates, nil
	case r.Fallback != fallback.None:
		return nil, nil
	default:
		return nil, fmt.Errorf("core: replaying decision %d: estimator: %w", r.Seq, err)
	}
}

// peekDrawLocked returns the next signal-sampling value without consuming
// it: the first peek pulls from the RNG into a one-slot buffer, and repeated
// peeks return the buffered value. Caller holds e.mu.
func (e *Engine) peekDrawLocked() float64 {
	if !e.hasPending {
		e.pendingDraw = e.rng.Float64()
		e.hasPending = true
	}
	return e.pendingDraw
}

// consumeDrawLocked commits the buffered draw: the value is spent and
// rngDraws — the count snapshots export and recovery fast-forwards — moves
// past it. Caller holds e.mu and must have peeked first.
func (e *Engine) consumeDrawLocked() {
	e.hasPending = false
	e.rngDraws++
}

// RNGDraws returns how many signal-sampling draws the engine has consumed
// this process lifetime (restored draws included). Used by snapshot tests.
func (e *Engine) RNGDraws() uint64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.rngDraws
}
