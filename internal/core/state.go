package core

import (
	"errors"
	"fmt"
	"time"

	"github.com/auditgames/sag/internal/fallback"
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
// not commit: budget, decisions, the kept estimate and the consumed-draw
// count are untouched, so the engine still matches what the journal holds.
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

// EngineState is a point-in-time export of the engine's mutable cycle
// state: what a fresh engine (same Config, same seed) needs to continue the
// cycle bit-identically. The kept estimate and equilibrium are not in it:
// they are those of the log's last solved record, which the restored engine
// rebuilds (rebuildLocked).
type EngineState struct {
	Budget  float64
	Initial float64
	// RNGDraws counts the Float64 draws consumed from the engine's RNG
	// stream; restore fast-forwards a freshly seeded RNG past them so the
	// next sampled signal lands on the same draw it would have uninterrupted.
	RNGDraws  uint64
	Decisions []DecisionRecord
}

// ExportState captures the engine's mutable cycle state. It is a consistent
// snapshot: taken under the budget lock, so it never observes a half-
// committed decision. Callers must externally ensure no decision commits
// between the export and whatever journal position the snapshot is written
// at (the server drains in-flight requests first).
func (e *Engine) ExportState() EngineState {
	e.mu.Lock()
	defer e.mu.Unlock()
	return EngineState{
		Budget:    e.budget,
		Initial:   e.initial,
		RNGDraws:  e.rngDraws,
		Decisions: append([]DecisionRecord{}, e.decisions...),
	}
}

// RestoreState loads an exported state into a freshly constructed engine.
// The engine must be pristine — same Config and RNG seed as the exporter,
// no decisions processed — because restore fast-forwards the RNG stream
// from its seed position and rebuilds the budget chain from zero. Restoring
// onto a used engine is an error, not a merge. Each decision is applied as
// ApplyDecision applies it, so the next decision rebuilds the kept estimate
// once.
func (e *Engine) RestoreState(st EngineState) error {
	if err := errors.Join(ValidateBudget(st.Budget), ValidateBudget(st.Initial)); err != nil {
		return fmt.Errorf("core: restoring: %w", err)
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
	e.applyLocked(nil, st.Decisions...)
	// Each restored decision spent its draw in applyLocked; burn the draws of
	// earlier cycles too, so the next decision samples the draw it would have
	// seen uninterrupted.
	for e.policy == PolicyOSSP && e.rngDraws < st.RNGDraws {
		e.rng.Float64()
		e.rngDraws++
	}
	e.budget, e.initial = st.Budget, st.Initial
	e.met.budget.Set(e.budget)
	return nil
}

// ApplyDecision replays one journaled decision onto the engine during
// recovery: it re-applies the budget charge and the recorded signal without
// re-solving or re-sampling — the record is the committed truth. One RNG
// draw is burned (the draw the original commit consumed) so the stream
// stays aligned. The estimator is not asked: the next decision rebuilds the
// kept estimate and equilibrium from the log once. Records must be applied
// in journal order.
func (e *Engine) ApplyDecision(r DecisionRecord) error {
	if r.Type < 0 || r.Type >= e.inst.NumTypes() {
		return fmt.Errorf("core: replaying decision: type %d out of range [0,%d)", r.Type, e.inst.NumTypes())
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if want := uint64(len(e.decisions)); r.Seq != want {
		return fmt.Errorf("core: replaying decision out of order: seq %d, want %d", r.Seq, want)
	}
	e.applyLocked(nil, r)
	return nil
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
