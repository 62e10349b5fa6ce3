package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"

	"github.com/auditgames/sag/internal/admit"
	"github.com/auditgames/sag/internal/core"
	"github.com/auditgames/sag/internal/emr"
	"github.com/auditgames/sag/internal/shard"
)

// route is one mutation route's row of the route × stage table (DESIGN.md,
// "The mutation pipeline"). The stage order is mutate's alone; a route only
// says which optional stages it runs and how it takes its tenant.
type route struct {
	path    string
	newReq  func() mutation
	lenient bool // a malformed body reads as the zero request (413 stays hard)
	hot     bool // hot path: disk-pressure gate and admission control
	create  bool // create the tenant on first use
}

var mutationRoutes = []route{
	{path: "/v1/access", newReq: func() mutation { return new(AccessRequest) }, hot: true, create: true},
	{path: "/v1/quit", newReq: func() mutation { return new(QuitRequest) }, hot: true, create: true},
	// Closing must not create (an unknown tenant has no cycle to close) and
	// is not gated: close, new and snapshot are how a disk-blocked tenant's
	// bytes become reclaimable. Callers historically POST junk bodies here.
	{path: "/v1/cycle/close", newReq: func() mutation { return new(CloseRequest) }, lenient: true},
	{path: "/v1/cycle/new", newReq: func() mutation { return new(NewCycleRequest) }, create: true},
}

// mutation is a decoded mutation request.
type mutation interface {
	tenantField() string
	// validate rejects (400) what is wrong on its face, before any tenant
	// is resolved: an invalid request must not create one.
	validate(s *Server) error
	// decide returns the answer plus the one record that, once applied and
	// durable, makes it true. It changes no per-cycle state itself — bar a
	// gamed alert and a close, which the engine commits and journals in one
	// critical section each.
	decide(ctx context.Context, s *Server, t *tenantState) outcome
}

// outcome is a decided request. rec.Kind is zero when there is nothing to
// apply: a refusal, or an alert or close the engine already committed.
type outcome struct {
	rec  core.Record
	code int
	body any
}

func refuse(code int, msg string) outcome { return outcome{code: code, body: apiError{Error: msg}} }

// mutate is the one path by which a request changes per-cycle state: standby
// gate → decode → validate → disk pressure → admission → resolve + deadline →
// decide → apply → wait → answer. State changes only in core.Engine.Apply —
// the function recovery runs on a boot or a promotion — which applies a
// record only once the journal has taken it, so live state is replay of the
// journal by construction and a refused append has nothing to undo.
func (s *Server) mutate(rt route) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if s.rejectIfFollowing(w) {
			return
		}
		req := rt.newReq()
		if !s.decodeJSON(w, r, req, rt.lenient) {
			return
		}
		if err := req.validate(s); err != nil {
			writeJSON(w, http.StatusBadRequest, apiError{Error: err.Error()})
			return
		}
		id := s.tenantID(r, req.tenantField())
		// The gates run before any tenant state is touched: a doomed request
		// costs no admission slot, a shed one a counter, not a solve.
		if rt.hot && s.retain != nil {
			if ra, blocked := s.retain.Blocked(id); blocked {
				setRetryHeaders(w.Header(), ra)
				writeJSON(w, http.StatusInsufficientStorage, apiError{
					Error: fmt.Sprintf("disk budget exhausted: tenant %q has no reclaimable journal bytes; close the cycle or retry later", id)})
				return
			}
		}
		// A malformed ID dies in resolveTenant (400); it must not take an
		// admission slot or queue place.
		if rt.hot && s.admit != nil && shard.ValidID(id) {
			release, err := s.admit.Admit(r.Context(), id)
			if err != nil {
				writeShed(w, err)
				return
			}
			defer release()
		}
		t := s.resolveTenant(w, r, id, rt.create)
		if t == nil {
			return
		}
		out := req.decide(r.Context(), s, t)
		if out.rec.Kind != 0 {
			if err := s.apply(t, out.rec); errors.Is(err, core.ErrCycleClosed) {
				out = refuse(http.StatusConflict, errClosed)
			} else if err != nil {
				writeJSON(w, http.StatusInternalServerError, apiError{Error: err.Error()})
				return
			}
		}
		writeJSON(w, out.code, out.body)
	}
}

// writeShed answers an admission refusal: 503 with the queue's backoff hint.
func writeShed(w http.ResponseWriter, err error) {
	msg := err.Error()
	var shed *admit.ShedError
	if errors.As(err, &shed) {
		setRetryHeaders(w.Header(), shed.RetryAfter)
		msg = fmt.Sprintf("overloaded (%s): request shed; retry after %ss",
			shed.Reason, admit.FormatRetryAfter(shed.RetryAfter))
	}
	writeJSON(w, http.StatusServiceUnavailable, apiError{Error: msg})
}

// errClosed is the 409 an access gets on a closed cycle (core.ErrCycleClosed).
const errClosed = "audit cycle is closed; POST /v1/cycle/new to start the next one"

// apply hands rec to t's engine, which enqueues it on t's journal (with a
// data dir), applies it under its budget lock and waits until it is as
// durable as the fsync policy promises; then apply counts it in the service
// counters. A failed wait leaves the record applied in memory, but the
// journal then refuses every later record, so the tenant answers 500 until a
// restart recovers what is on disk. A record the engine refuses on a closed
// cycle is core.ErrCycleClosed, unwrapped.
func (s *Server) apply(t *tenantState, rec core.Record) error {
	first := rec.Kind == core.KindQuit && !t.engine.Flagged(rec.Employee)
	err := t.engine.Apply(rec, t.record)
	if rec.Kind == core.KindQuit {
		t.met.flagged.Set(float64(t.engine.Status().FlaggedUsers))
	}
	switch {
	case errors.Is(err, core.ErrCycleClosed):
		return err
	case err != nil:
		return fmt.Errorf("journal: %w", err)
	case rec.Kind == core.KindMeta:
		t.met.count(rec.Meta)
	case first:
		t.met.quits.Inc()
	}
	return nil
}

func (q *AccessRequest) tenantField() string    { return q.Tenant }
func (q *AccessRequest) validate(*Server) error { return nil }

// decide evaluates one access. A detector-rejected access is deliberately not
// a validate failure: it is counted and journaled as a bare access, then
// answered 400. A gamed alert commits inside the engine, which journals it
// through core.Config.Journal (see buildTenant) before returning. A closed
// cycle is the engine's to refuse, here or at apply.
func (q *AccessRequest) decide(ctx context.Context, s *Server, t *tenantState) outcome {
	now := s.cfg.Clock()
	alert, fired, err := s.detector.Evaluate(emr.AccessEvent{Time: now, EmployeeID: q.EmployeeID, PatientID: q.PatientID})
	if err != nil {
		return outcome{core.Record{Kind: core.KindMeta}, http.StatusBadRequest, apiError{Error: err.Error()}}
	}
	resp := AccessResponse{RemainingBudget: t.engine.RemainingBudget()}
	if !fired {
		return outcome{core.Record{Kind: core.KindMeta}, http.StatusOK, resp}
	}
	resp.Alert = true
	resp.TypeID = alert.Type
	resp.Rules = alert.Rules.String()

	if t.engine.Flagged(q.EmployeeID) {
		// Known quitter: always warn (and the access is investigated out
		// of band — the paper notes this is cheap because quits are rare).
		resp.Warn = true
		resp.Flagged = true
		return outcome{core.Record{Kind: core.KindMeta, Meta: core.Meta{Alerted: true, Warned: true}}, http.StatusOK, resp}
	}
	idx, gamed := s.typeIdx[alert.Type]
	if !gamed {
		// Unmodeled type: logged, never warned (no payoff structure).
		return outcome{core.Record{Kind: core.KindMeta, Meta: core.Meta{Alerted: true}}, http.StatusOK, resp}
	}
	d, err := t.engine.ProcessContext(ctx, core.Alert{Type: idx, Time: now})
	switch {
	case errors.Is(err, core.ErrCycleClosed):
		return refuse(http.StatusConflict, errClosed)
	case errors.Is(err, core.ErrAbandoned):
		// The request deadline passed in the engine's queue or during the
		// solve: nothing committed.
		return refuse(http.StatusServiceUnavailable, "request timed out")
	case err != nil:
		// No decision committed: the engine journals before it commits.
		return refuse(http.StatusInternalServerError, err.Error())
	}
	t.met.count(core.Meta{Alerted: true, Warned: d.Warned})
	resp.Warn = d.Warned
	resp.RemainingBudget = d.BudgetAfter
	if d.Fallback.Degraded() {
		resp.Fallback = d.Fallback.String()
	}
	return outcome{code: http.StatusOK, body: resp}
}

func (q *QuitRequest) tenantField() string { return q.Tenant }

func (q *QuitRequest) validate(s *Server) error {
	if q.EmployeeID < 0 || q.EmployeeID >= len(s.cfg.World.Employees) {
		return fmt.Errorf("unknown employee %d", q.EmployeeID)
	}
	return nil
}

// decide is idempotent: a quit reveals the requester once, so the engine
// flags and counts only the first record of an employee, live and on replay
// alike. A repeated report (front ends retry) is journaled too: a flag is
// applied before its record is durable, so answering a retry with no record
// of its own to wait for could acknowledge a flag that a crash then loses.
func (q *QuitRequest) decide(context.Context, *Server, *tenantState) outcome {
	return outcome{core.Record{Kind: core.KindQuit, Employee: q.EmployeeID}, http.StatusOK, struct {
		Flagged bool `json:"flagged"`
	}{Flagged: true}}
}

func (q *CloseRequest) tenantField() string    { return q.Tenant }
func (q *CloseRequest) validate(*Server) error { return nil }

// decide draws the audit plan and closes the cycle, one critical section in
// the engine. A second close is a conflict — re-sampling would draw a fresh
// plan for a cycle that already has one. If the record is lost the client
// never saw the plan, the cycle stays open, and a retried close re-derives
// the identical plan (same access count → same seed).
func (q *CloseRequest) decide(_ context.Context, s *Server, t *tenantState) outcome {
	audits, total, err := t.engine.CloseCycle(s.cfg.Seed^t.seedOffset, t.record)
	switch {
	case errors.Is(err, core.ErrCycleClosed):
		return refuse(http.StatusConflict, "audit cycle already closed; POST /v1/cycle/new to start the next one")
	case err != nil:
		return refuse(http.StatusInternalServerError, "journal: "+err.Error())
	}
	return outcome{code: http.StatusOK, body: CloseResponse{Audits: audits, TotalCost: total}}
}

func (q *NewCycleRequest) tenantField() string    { return q.Tenant }
func (q *NewCycleRequest) validate(*Server) error { return core.ValidateBudget(q.Budget) }

// decide rolls the cycle over; validate has checked the budget the engine
// checks again.
func (q *NewCycleRequest) decide(context.Context, *Server, *tenantState) outcome {
	return outcome{core.Record{Kind: core.KindCycleOpen, Budget: q.Budget}, http.StatusOK, struct {
		Budget float64 `json:"budget"`
	}{Budget: q.Budget}}
}
