package core

import (
	"errors"
	"fmt"
	"slices"
	"time"

	"github.com/auditgames/sag/internal/fallback"
)

// Kind discriminates the records of a tenant's journal: the kinds of change
// to its cycle state, all applied by applyLocked.
type Kind uint8

const (
	KindSnapshot   Kind = 1 // an encoded EngineState; recovery replays only what follows the last
	KindDecision   Kind = 2 // one committed decision: one access, one alert
	KindMeta       Kind = 3 // one access with no decision: benign, a flagged employee's, or of an unmodeled type
	KindQuit       Kind = 4 // a warned employee abandoned the access
	KindCycleOpen  Kind = 5 // a cycle rollover with its fresh budget
	KindCycleClose Kind = 6 // the cycle's audit plan was drawn
)

var kindNames = [...]string{KindSnapshot: "snapshot", KindDecision: "decision", KindMeta: "meta",
	KindQuit: "quit", KindCycleOpen: "cycle_open", KindCycleClose: "cycle_close"}

// String returns a stable name for diagnostics.
func (k Kind) String() string {
	if int(k) < len(kindNames) && kindNames[k] != "" {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Meta is the counter delta of a KindMeta record: one access, plus the
// alert and the warning when set.
type Meta struct {
	Alerted bool
	Warned  bool
}

// Record is one change to a tenant's cycle state, in the form its journal
// holds. Kind selects which payload field is live.
type Record struct {
	Kind     Kind
	Decision DecisionRecord // KindDecision
	Meta     Meta           // KindMeta
	Employee int            // KindQuit
	Budget   float64        // KindCycleOpen
	Snapshot []byte         // KindSnapshot (wal.EncodeSnapshot's blob)
}

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

// EngineState is a point-in-time export of a tenant's whole cycle state —
// what a KindSnapshot record carries, and what a fresh engine (same Config,
// same seed) needs to continue the cycle bit-identically. The kept estimate
// and equilibrium are not in it: they are those of the log's last solved
// record, which the restored engine rebuilds (rebuildLocked).
type EngineState struct {
	Budget  float64
	Initial float64
	// RNGDraws counts the Float64 draws consumed from the engine's RNG
	// stream; restore fast-forwards a freshly seeded RNG past them so the
	// next sampled signal lands on the same draw it would have uninterrupted.
	RNGDraws  uint64
	Decisions []DecisionRecord
	// The cycle's counters: accesses served, the alerts and warnings among
	// them, and first quits. KindCycleOpen zeroes them.
	Accesses, Alerts, Warned, Quits int64
	// Flagged lists, ascending, the employees who quit a warned access. A
	// quit reveals the requester for good (paper §4): it outlives the cycle.
	Flagged []int
	// Closed reports that the cycle's audit plan was drawn.
	Closed bool
}

// ExportState captures the engine's mutable cycle state: a copy, taken under
// the budget lock, so it never observes a half-applied record.
func (e *Engine) ExportState() (st EngineState) {
	_, _ = e.Snapshot(func(live EngineState) (func() error, error) { // cannot fail: it enqueues nothing
		st = live
		st.Decisions = append([]DecisionRecord{}, live.Decisions...)
		st.Flagged = slices.Clone(live.Flagged)
		return nil, nil
	})
	return st
}

// Snapshot hands the engine's cycle state to enqueue under the budget lock,
// so no record is applied between the export and the snapshot record enqueue
// writes. The state aliases the engine's storage: enqueue must encode it
// before it returns and keep no part of it. It returns enqueue's wait, for
// the caller to run unlocked.
func (e *Engine) Snapshot(enqueue func(EngineState) (wait func() error, err error)) (wait func() error, err error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return enqueue(EngineState{
		Budget:    e.budget,
		Initial:   e.initial,
		RNGDraws:  e.rngDraws,
		Decisions: e.decisions,
		Accesses:  e.accesses,
		Alerts:    e.alerts,
		Warned:    e.warned,
		Quits:     e.quits,
		Flagged:   e.flagged,
		Closed:    e.closed,
	})
}

// RestoreState loads an exported state into a freshly constructed engine.
// The engine must be pristine — same Config and RNG seed as the exporter,
// no decisions processed — because restore fast-forwards the RNG stream
// from its seed position and rebuilds the budget chain from zero. Restoring
// onto a used engine is an error, not a merge. Each decision is applied as
// Replay applies it, so the next decision rebuilds the kept estimate once.
func (e *Engine) RestoreState(st EngineState) error {
	if err := errors.Join(ValidateBudget(st.Budget), ValidateBudget(st.Initial)); err != nil {
		return fmt.Errorf("core: restoring: %w", err)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if len(e.decisions) != 0 || e.rngDraws != 0 || e.hasPending || e.accesses != 0 || len(e.flagged) != 0 {
		return errors.New("core: RestoreState requires a fresh engine")
	}
	e.decisions = slices.Grow(e.decisions, len(st.Decisions))
	for _, d := range st.Decisions {
		r := Record{Kind: KindDecision, Decision: d}
		if err := e.checkLocked(r); err != nil {
			return fmt.Errorf("core: restoring: %w", err)
		}
		e.applyLocked(r, nil)
	}
	// Each restored decision spent its draw in applyLocked; burn the draws of
	// earlier cycles too, so the next decision samples the draw it would have
	// seen uninterrupted.
	for e.policy == PolicyOSSP && e.rngDraws < st.RNGDraws {
		e.rng.Float64()
		e.rngDraws++
	}
	e.budget, e.initial = st.Budget, st.Initial
	e.accesses, e.alerts, e.warned, e.quits = st.Accesses, st.Alerts, st.Warned, st.Quits
	for _, emp := range st.Flagged {
		e.flag(emp)
	}
	e.closed = st.Closed
	e.met.budget.Set(e.budget)
	return nil
}

// Apply is how every record but a decision changes the live cycle: under the
// budget lock it checks r, enqueues it through journal (nil without one) and
// applies it only if the enqueue succeeded; then, unlocked, it runs the
// journal's wait and, if that returned nil, moves the service counters. Like
// Config.Journal, journal must only enqueue.
func (e *Engine) Apply(r Record, journal func(Record) (wait func() error, err error)) error {
	wait, c, err := e.record(r, journal)
	if err == nil && wait != nil {
		err = wait()
	}
	if err == nil {
		e.met.count(c)
	}
	return err
}

// Replay applies r as recovery does: checked and applied, never journaled and
// never counted — the service counters count what this process served.
func (e *Engine) Replay(r Record) error {
	_, _, err := e.record(r, nil)
	return err
}

// record is Apply's and Replay's critical section.
func (e *Engine) record(r Record, journal func(Record) (wait func() error, err error)) (wait func() error, c tally, err error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if err := e.checkLocked(r); err != nil {
		return nil, c, err
	}
	if journal != nil {
		if wait, err = journal(r); err != nil {
			return nil, c, err
		}
	}
	return wait, e.applyLocked(r, nil), nil
}

// checkLocked refuses a record applyLocked cannot apply: a decision out of
// sequence or of an unknown type, an invalid budget, a snapshot or an
// unknown kind — and, on a closed cycle, anything but a quit or the next
// cycle's open (ErrCycleClosed). The caller holds e.mu.
func (e *Engine) checkLocked(r Record) error {
	if e.closed && (r.Kind == KindDecision || r.Kind == KindMeta || r.Kind == KindCycleClose) {
		return ErrCycleClosed
	}
	switch r.Kind {
	case KindDecision:
		d := r.Decision
		if d.Type < 0 || d.Type >= e.inst.NumTypes() {
			return fmt.Errorf("core: decision %d: type %d out of range [0,%d)", d.Seq, d.Type, e.inst.NumTypes())
		}
		if want := uint64(len(e.decisions)); d.Seq != want {
			return fmt.Errorf("core: decision out of order: seq %d, want %d", d.Seq, want)
		}
	case KindCycleOpen:
		return ValidateBudget(r.Budget)
	case KindMeta, KindQuit, KindCycleClose:
	default:
		return fmt.Errorf("core: cannot apply a %v record", r.Kind)
	}
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
