package server

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http"

	"github.com/auditgames/sag/internal/admit"
	"github.com/auditgames/sag/internal/core"
	"github.com/auditgames/sag/internal/emr"
	"github.com/auditgames/sag/internal/shard"
	"github.com/auditgames/sag/internal/wal"
)

// route is one mutation route's row of the route × stage table (DESIGN.md,
// "The mutation pipeline"). The stage order is mutate's alone; a route only
// says which optional stages it runs and how it takes its tenant.
type route struct {
	path    string
	newReq  func() mutation
	lenient bool     // a malformed body reads as the zero request (413 stays hard)
	hot     bool     // hot path: disk-pressure gate and admission control
	create  bool     // create the tenant on first use
	side    lockSide // read: requests overlap; write: in-flight decisions drain first
}

var mutationRoutes = []route{
	{path: "/v1/access", newReq: func() mutation { return new(AccessRequest) }, hot: true, create: true, side: readSide},
	{path: "/v1/quit", newReq: func() mutation { return new(QuitRequest) }, hot: true, create: true, side: readSide},
	// Closing must not create (an unknown tenant has no cycle to close) and
	// is not gated: close, new and snapshot are how a disk-blocked tenant's
	// bytes become reclaimable. Callers historically POST junk bodies here.
	{path: "/v1/cycle/close", newReq: func() mutation { return new(CloseRequest) }, lenient: true, side: writeSide},
	{path: "/v1/cycle/new", newReq: func() mutation { return new(NewCycleRequest) }, create: true, side: writeSide},
}

// mutation is a decoded mutation request.
type mutation interface {
	tenantField() string
	// validate rejects (400) what is wrong on its face, before any tenant
	// is resolved: an invalid request must not create one.
	validate(s *Server) error
	// decide runs under the tenant's lifecycle lock and returns the answer
	// plus the one record that, once durable and applied, makes it true. It
	// changes no per-cycle state itself — bar a gamed alert, which the engine
	// has committed and journaled through its own hook by the time decide
	// counts it.
	decide(ctx context.Context, s *Server, t *tenantState) outcome
}

// outcome is a decided request. rec.Kind is zero when there is nothing to
// commit: a refusal, a repeated quit, or an alert the engine already committed.
type outcome struct {
	rec  wal.Record
	code int
	body any
}

func refuse(code int, msg string) outcome { return outcome{code: code, body: apiError{Error: msg}} }

// mutate is the one path by which a request changes per-cycle state: standby
// gate → decode → validate → disk pressure → admission → resolve + lifecycle
// lock + deadline → decide → journal and wait → applyRecord → answer. State
// changes only in applyRecord, after the record is durable — the function boot
// replay and followers run — so live state is replay of the journal by
// construction and a failed append has nothing to undo.
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
		// costs no token or queue slot, a shed one a bucket check, not a solve.
		if rt.hot && s.retain != nil {
			if ra, blocked := s.retain.Blocked(id); blocked {
				setRetryHeaders(w.Header(), ra)
				writeJSON(w, http.StatusInsufficientStorage, apiError{
					Error: fmt.Sprintf("disk budget exhausted: tenant %q has no reclaimable journal bytes; close the cycle or retry later", id)})
				return
			}
		}
		// A malformed ID dies in resolveTenant (400); it must not occupy
		// admission state.
		if rt.hot && s.admit != nil && shard.ValidID(id) {
			release, err := s.admit.Admit(r.Context(), id)
			if err != nil {
				writeShed(w, err)
				return
			}
			defer release()
		}
		t := s.resolveTenant(w, r, id, rt.create, rt.side)
		if t == nil {
			return
		}
		defer t.unlockLifecycle(rt.side)
		out := req.decide(r.Context(), s, t)
		if out.rec.Kind != 0 {
			if err := s.commit(t, out.rec); err != nil {
				writeJSON(w, http.StatusInternalServerError, apiError{Error: err.Error()})
				return
			}
		}
		writeJSON(w, out.code, out.body)
	}
}

// writeShed answers an admission refusal: 503 with the computed backoff.
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

// commit makes rec durable (with a data dir) and only then applies it.
func (s *Server) commit(t *tenantState, rec wal.Record) error {
	if t.journal != nil {
		wait, err := s.appendRecord(t, rec)
		if err == nil && wait != nil {
			err = wait()
		}
		if err != nil {
			return fmt.Errorf("journal: %w", err)
		}
	}
	err := s.applyRecord(t, rec)
	if err != nil {
		// Unreachable for a validated request; if it ever fires the journal
		// holds a record that memory does not, so say so loudly.
		s.logf("server: tenant %s: %v record journaled but not applied: %v", t.id, rec.Kind, err)
	}
	return err
}

func (q *AccessRequest) tenantField() string    { return q.Tenant }
func (q *AccessRequest) validate(*Server) error { return nil }

// decide evaluates one access. A detector-rejected access is deliberately not
// a validate failure: it is counted and journaled as a bare access, then
// answered 400. A gamed alert commits inside the engine, which journals it
// through core.Config.Journal (see buildTenant) before returning.
func (q *AccessRequest) decide(ctx context.Context, s *Server, t *tenantState) outcome {
	if t.closed {
		return refuse(http.StatusConflict, "audit cycle is closed; POST /v1/cycle/new to start the next one")
	}
	t.met.accesses.Inc()
	now := s.cfg.Clock()
	alert, fired, err := s.detector.Evaluate(emr.AccessEvent{Time: now, EmployeeID: q.EmployeeID, PatientID: q.PatientID})
	if err != nil {
		return outcome{wal.Record{Kind: wal.KindMeta}, http.StatusBadRequest, apiError{Error: err.Error()}}
	}
	resp := AccessResponse{RemainingBudget: t.engine.RemainingBudget()}
	if !fired {
		return outcome{wal.Record{Kind: wal.KindMeta}, http.StatusOK, resp}
	}
	t.met.alerts.Inc()
	resp.Alert = true
	resp.TypeID = alert.Type
	resp.Rules = alert.Rules.String()

	if t.isFlagged(q.EmployeeID) {
		// Known quitter: always warn (and the access is investigated out
		// of band — the paper notes this is cheap because quits are rare).
		resp.Warn = true
		resp.Flagged = true
		t.met.warned.Inc()
		return outcome{wal.Record{Kind: wal.KindMeta, Meta: wal.Meta{Alerted: true, Warned: true}}, http.StatusOK, resp}
	}
	idx, gamed := s.typeIdx[alert.Type]
	if !gamed {
		// Unmodeled type: logged, never warned (no payoff structure).
		return outcome{wal.Record{Kind: wal.KindMeta, Meta: wal.Meta{Alerted: true}}, http.StatusOK, resp}
	}
	d, err := t.engine.ProcessContext(ctx, core.Alert{Type: idx, Time: now})
	switch {
	case errors.Is(err, core.ErrAbandoned):
		// The request deadline passed in the engine's queue or during the
		// solve: nothing committed.
		return refuse(http.StatusServiceUnavailable, "request timed out")
	case err != nil:
		// No decision committed: the engine journals before it commits.
		return refuse(http.StatusInternalServerError, err.Error())
	}
	t.countAccess(true, d.Warned)
	resp.Warn = d.Warned
	resp.RemainingBudget = d.BudgetAfter
	if d.Fallback.Degraded() {
		resp.Fallback = d.Fallback.String()
	}
	if d.Warned {
		t.met.warned.Inc()
	}
	return outcome{code: http.StatusOK, body: resp}
}

// isFlagged reports whether emp has quit a warned access. The lock is
// released before returning: it is never held across a journal wait.
func (t *tenantState) isFlagged(emp int) bool {
	t.flaggedMu.RLock()
	defer t.flaggedMu.RUnlock()
	return t.flagged[emp]
}

func (q *QuitRequest) tenantField() string { return q.Tenant }

func (q *QuitRequest) validate(s *Server) error {
	if q.EmployeeID < 0 || q.EmployeeID >= len(s.cfg.World.Employees) {
		return fmt.Errorf("unknown employee %d", q.EmployeeID)
	}
	return nil
}

// decide is idempotent: a quit reveals the requester once, so a repeated
// report (front ends retry) re-confirms the flag without a record. First
// reports racing on one employee each journal a record; applyRecord flags and
// counts only the first, live and on replay alike.
func (q *QuitRequest) decide(_ context.Context, _ *Server, t *tenantState) outcome {
	out := outcome{code: http.StatusOK, body: struct {
		Flagged bool `json:"flagged"`
	}{Flagged: true}}
	if !t.isFlagged(q.EmployeeID) {
		t.met.quits.Inc()
		out.rec = wal.Record{Kind: wal.KindQuit, Employee: q.EmployeeID}
	}
	return out
}

func (q *CloseRequest) tenantField() string    { return q.Tenant }
func (q *CloseRequest) validate(*Server) error { return nil }

// decide draws the audit plan. A second close is a conflict — re-sampling
// would draw a fresh plan for a cycle that already has one. If the record is
// lost the client never saw the plan, the cycle stays open, and a retried
// close re-derives the identical plan (same access count → same seed).
func (q *CloseRequest) decide(_ context.Context, s *Server, t *tenantState) outcome {
	if t.closed {
		return refuse(http.StatusConflict, "audit cycle already closed; POST /v1/cycle/new to start the next one")
	}
	rng := rand.New(rand.NewSource(s.cfg.Seed ^ t.seedOffset ^ t.accesses.Load()))
	audits, total := t.engine.CloseCycle(rng)
	return outcome{wal.Record{Kind: wal.KindCycleClose}, http.StatusOK, CloseResponse{Audits: audits, TotalCost: total}}
}

func (q *NewCycleRequest) tenantField() string    { return q.Tenant }
func (q *NewCycleRequest) validate(*Server) error { return core.ValidateBudget(q.Budget) }

// decide rolls the cycle over; with the budget validated the engine call in
// applyRecord cannot fail once the record is on disk.
func (q *NewCycleRequest) decide(context.Context, *Server, *tenantState) outcome {
	return outcome{wal.Record{Kind: wal.KindCycleOpen, Budget: q.Budget}, http.StatusOK, struct {
		Budget float64 `json:"budget"`
	}{Budget: q.Budget}}
}
