// Package server exposes the online Signaling Audit Game as an HTTP
// service — the deployment shape the paper describes: an EMR front end
// calls the service for every access request; benign requests pass
// silently, suspicious ones get a real-time warn/allow decision; at the end
// of the audit cycle the service emits the retrospective audit plan.
//
// Endpoints (JSON over HTTP, stdlib net/http only):
//
//	POST /v1/access        — evaluate one access; returns whether to warn
//	POST /v1/quit          — report that a warned user abandoned the access
//	POST /v1/cycle/close   — sample and return the retrospective audit plan
//	POST /v1/cycle/new     — start the next audit cycle with a fresh budget
//	GET  /v1/status        — budget, counts, and configuration snapshot
//	GET  /v1/metrics       — Prometheus text exposition (HTTP + engine + solver)
//	GET  /v1/healthz       — liveness probe (always 200 while serving)
//	GET  /v1/readyz        — readiness probe (503 once draining)
//
// Multi-tenancy: one server hosts many independent audit cycles — one per
// tenant (a hospital, in the paper's deployment story) — routed by the
// X-SAG-Tenant header, the "tenant" body field, or (for GET /v1/status) the
// ?tenant= query parameter; requests that carry none use the default
// tenant. Each tenant owns a dedicated core.Engine behind a shard.Router
// (see internal/shard): its own budget chain, fallback
// state, and RNG stream. A box builds every tenant on disk at boot; mutations
// create new ones up to Config.MaxTenants (429 beyond it). The world, detection
// rules, and game instance — all immutable during serving — are shared.
//
// Concurrency: the serving hot path is not globally serialized. Tenants
// share no lock across a decision, and a tenant has one lock, its engine's
// budget lock (see core.Engine), which holds the whole cycle state and makes
// each change — a gamed decision, a close with its audit plan, a snapshot's
// enqueue — one critical section; a closed cycle refuses accesses itself.
// The durability wait runs outside the lock, so one hot tenant still shares
// fsyncs. The full locking hierarchy is documented in DESIGN.md.
//
// The serving path is hardened for production shapes: request bodies are
// capped (1 MiB), a failed solve degrades gracefully (the
// fallback ladder in internal/fallback) instead of erroring, and
// Run provides the full listener lifecycle — server timeouts, health-gated
// draining, and coordinated shutdown of the main and debug listeners.
//
// A request is served start to finish on its connection's goroutine, behind
// one mux and one wrapper (Server.wrap): context deadline, panic containment,
// Retry-After stamping, status/latency metrics. Config.RequestTimeout is
// honoured where a request can wait — admission queue, tenant creation, the
// engine's lock, solve — and last by the engine immediately before it
// commits; after that the
// request is answered however late. So 503 "request timed out" means NOT
// applied (no counter, charge, signal draw or journal record): safe to retry.
// Code that ignores its context is bounded only by http.Server.WriteTimeout.
//
// The four mutation routes are rows of one table run by one pipeline
// (mutate.go): gates → validate → resolve and lock → decide → apply → wait →
// answer. Per-cycle state changes only in the engine, which applies a record
// under its lock once the journal has taken it, as recovery does on a boot
// or a promotion, so live state equals replay of the journal by construction
// and a request invalid on its face is refused before it can create a
// tenant.
//
// With Config.DataDir each tenant journals to its own write-ahead log
// (internal/wal). The append path only appends: the retention scan
// (internal/retain) is the one place the server snapshots a tenant unasked.
package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"github.com/auditgames/sag/internal/admit"
	"github.com/auditgames/sag/internal/alerts"
	"github.com/auditgames/sag/internal/core"
	"github.com/auditgames/sag/internal/emr"
	"github.com/auditgames/sag/internal/faultinject"
	"github.com/auditgames/sag/internal/game"
	"github.com/auditgames/sag/internal/obs"
	"github.com/auditgames/sag/internal/retain"
	"github.com/auditgames/sag/internal/shard"
	"github.com/auditgames/sag/internal/wal"
)

// TenantHeader is the request header naming the tenant an API call is for.
// It wins over the "tenant" body field; absent both, the request routes to
// DefaultTenantID.
const TenantHeader = "X-SAG-Tenant"

// tenantHeaderKey is TenantHeader as http.Header stores it. Header.Get
// would canonicalise the constant again, allocating, on every request.
var tenantHeaderKey = http.CanonicalHeaderKey(TenantHeader)

// DefaultTenantID is the tenant a request that names none routes to. New
// creates it eagerly.
const DefaultTenantID = "default"

// defaultMaxBodyBytes caps request bodies; oversized ones answer 413.
const defaultMaxBodyBytes = 1 << 20

// Config assembles a Server.
type Config struct {
	// World and detection rules: every access is joined against these. Both
	// are shared by all tenants — the world is immutable during serving and
	// the taxonomy is append-only and self-locking.
	World    *emr.World
	Taxonomy *alerts.Taxonomy
	// TypeIDs maps taxonomy type IDs to engine type indices (position in
	// the slice = engine index). Alerts of unlisted types are logged but
	// not gamed (treated as benign for auditing purposes).
	TypeIDs []int
	// Instance, Budget, Estimator, Seed configure the game engines. The
	// instance and the estimator are shared by every tenant engine: payoffs
	// are immutable, and an estimator's answer is a function of the query
	// alone (core.Estimator), so it must be safe for concurrent use.
	// Budget is each new tenant's initial cycle budget. Seed seeds the
	// default tenant's RNG exactly; other tenants fold in a hash of their
	// ID (see shard.Seed) so streams are distinct but reproducible.
	Instance  *game.Instance
	Budget    float64
	Estimator core.Estimator
	Seed      int64
	// MaxTenants caps resident tenants: creation beyond it answers 429, and a
	// data dir holding more refuses to boot. Zero selects shard.DefaultMaxTenants.
	MaxTenants int
	// Clock returns the current offset within the audit cycle; defaults to
	// wall-clock time-of-day. Tests inject a fake.
	Clock func() time.Duration
	// RequestTimeout is each API request's context deadline: a request still
	// waiting (admission, tenant creation, solve) when it passes is answered
	// 503 "request timed out" having changed nothing; one that has committed
	// is answered normally. Zero installs no deadline.
	RequestTimeout time.Duration
	// Admission configures overload protection for the mutation hot path
	// (/v1/access and /v1/quit): a box-wide inflight cap with a bounded
	// round-robin-fair admission queue; a shed is 503 + Retry-After. The
	// zero value admits everything. A queued request waits no longer than
	// its own context (RequestTimeout). See internal/admit.
	Admission admit.Config
	// SSESolve overrides the engines' online SSE solver (nil means the real
	// game.SolveOnlineSSECtx). Injection seam for fault-injection and for
	// the concurrency tests, which substitute a blocking solver to prove
	// decisions overlap.
	SSESolve core.SSESolveFunc
	// DataDir, when non-empty, enables durability: every tenant gets a
	// write-ahead journal under DataDir/tenants/, each acknowledged
	// state-changing request is journaled before its response is written,
	// and a tenant booting with an existing journal recovers its full cycle
	// state (snapshot + tail replay) bit-identically. Empty keeps the
	// previous in-memory-only behavior.
	DataDir string
	// Fsync selects the journal durability policy (always / interval /
	// none); the zero value is wal.FsyncAlways. Only meaningful with
	// DataDir.
	Fsync wal.FsyncPolicy
	// SnapshotEvery is the automatic snapshot cadence: the retention scan
	// (see internal/retain) snapshots a tenant once this many journal
	// records follow its newest snapshot; zero selects DefaultSnapshotEvery.
	// Only meaningful with DataDir.
	SnapshotEvery int
	// SegmentBytes overrides the journal segment roll size; zero keeps
	// wal.DefaultSegmentBytes. Only meaningful with DataDir. Drills shrink
	// it to force segment rolls (and snapshot pruning) quickly.
	SegmentBytes int64
	// DiskBudgetBytes, when positive, bounds the box-wide journal footprint:
	// the retention scan also accounts every resident tenant's journal bytes
	// against this budget and snapshots-then-prunes the tenants holding the
	// most reclaimable bytes. When the box stays over budget and a tenant has
	// nothing left to reclaim, its hot-path mutations answer 507 +
	// Retry-After. Zero leaves journals to their snapshot cadence. Only
	// meaningful with DataDir.
	DiskBudgetBytes int64
	// CompactInterval is the retention scan's cadence; zero selects
	// retain.DefaultInterval. Only meaningful with DataDir.
	CompactInterval time.Duration
	// FollowPrimary, when non-empty, starts the server as a hot standby of
	// the primary at this base URL: every durable tenant's journal is
	// mirrored via WAL log shipping (see internal/replica), no tenant is
	// built, and every tenant-addressed request answers 503 until POST
	// /v1/admin/promote. Requires DataDir.
	FollowPrimary string
}

// tenantState is one tenant: its engine, which holds the whole cycle state,
// the service counters and the tenant's one lock, and its journal. It rides
// in shard.Tenant.Data.
// Lock order: the engine's budget lock, then the journal's; the durability
// wait runs after the engine unlocks.
type tenantState struct {
	id         string
	seedOffset int64 // folded into RNG seeds; 0 for the default tenant
	engine     *core.Engine
	// journal is set once, by recoverTenant before the router publishes the
	// tenant, so it is read bare. It is nil only when durability is disabled.
	journal *wal.Journal
	// record is the one way a record enters journal, always under the
	// engine's budget lock, so journal order is apply order: it fires the
	// journal fault point, enqueues, and returns the wait. Nil without one.
	record func(core.Record) (wait func() error, err error)
}

// Server is the HTTP facade. Create with New and mount via Handler.
type Server struct {
	detector *alerts.Engine
	cfg      Config
	met      serverMetrics
	typeIdx  map[int]int // taxonomy ID → engine index
	router   *shard.Router
	ready    atomic.Bool

	// admit is the admission controller gating the mutation hot path; nil
	// when Config.Admission is the zero value (admit everything).
	admit *admit.Controller

	// retain is the retention scan: the automatic snapshot cadence and, with
	// DiskBudgetBytes, the disk budget. Nil unless DataDir is set.
	retain *retain.Compactor

	// following is true while the server is a replicating standby; flipped
	// false (permanently) by Promote. Mutation handlers gate on it.
	following atomic.Bool
	follow    atomic.Pointer[followController] // set by StartFollowing
	promoteMu sync.Mutex                       // serializes Promote, and Close against it
	closed    bool                             // Close has run: a later Promote opens nothing; guarded by promoteMu

	// journalFault, when set, is fired before every WAL append (see
	// tenantState.record). Testing seam for the journal-failure consistency
	// suite (SetJournalFault).
	journalFault atomic.Pointer[faultinject.Point]
}

// New validates the configuration and builds the server with every tenant on
// disk and the default tenant resident (openTenants); a standby builds them
// at promotion.
func New(cfg Config) (*Server, error) {
	if cfg.World == nil || cfg.Taxonomy == nil {
		return nil, errors.New("server: World and Taxonomy are required")
	}
	if cfg.Instance == nil {
		return nil, errors.New("server: Instance is required")
	}
	if cfg.Estimator == nil {
		return nil, errors.New("server: Estimator is required")
	}
	if len(cfg.TypeIDs) != cfg.Instance.NumTypes() {
		return nil, fmt.Errorf("server: %d type IDs for %d engine types", len(cfg.TypeIDs), cfg.Instance.NumTypes())
	}
	if cfg.FollowPrimary != "" && cfg.DataDir == "" {
		return nil, errors.New("server: following a primary requires a data dir")
	}
	if cfg.DiskBudgetBytes > 0 && cfg.DataDir == "" {
		return nil, errors.New("server: a disk budget requires a data dir")
	}
	detector, err := alerts.NewEngine(cfg.World, cfg.Taxonomy)
	if err != nil {
		return nil, err
	}
	if cfg.Clock == nil {
		cfg.Clock = func() time.Duration {
			now := time.Now()
			return time.Duration(now.Hour())*time.Hour +
				time.Duration(now.Minute())*time.Minute +
				time.Duration(now.Second())*time.Second
		}
	}
	idx := make(map[int]int, len(cfg.TypeIDs))
	for i, id := range cfg.TypeIDs {
		if _, dup := idx[id]; dup {
			return nil, fmt.Errorf("server: duplicate type ID %d", id)
		}
		idx[id] = i
	}
	s := &Server{
		detector: detector,
		cfg:      cfg,
		met:      newServerMetrics(),
		typeIdx:  idx,
	}
	if cfg.Admission.Enabled() {
		adm := cfg.Admission
		if adm.Metrics == nil {
			adm.Metrics = s.met.reg
		}
		ctl, err := admit.New(adm)
		if err != nil {
			return nil, fmt.Errorf("server: admission: %w", err)
		}
		s.admit = ctl
	}
	s.following.Store(cfg.FollowPrimary != "")
	s.router, err = shard.NewRouter(shard.Config{
		New:        s.buildTenant,
		MaxTenants: cfg.MaxTenants,
		Metrics:    s.met.reg,
	})
	if err != nil {
		return nil, err
	}
	if !s.following.Load() {
		if _, err := s.openTenants(); err != nil {
			// Seal what was opened: an interval or none journal owns a
			// ticker goroutine.
			s.router.Range(func(tn *shard.Tenant) bool {
				_ = tn.Data.(*tenantState).journal.Close()
				return true
			})
			return nil, err
		}
	}
	if s.durable() {
		every := cfg.SnapshotEvery
		if every <= 0 {
			every = DefaultSnapshotEvery
		}
		comp, err := retain.New(retain.Config{
			BudgetBytes:   cfg.DiskBudgetBytes,
			SnapshotEvery: every,
			Interval:      cfg.CompactInterval,
			List:          s.listRetainTenants,
			Metrics:       s.met.reg,
		})
		if err != nil {
			return nil, fmt.Errorf("server: retention: %w", err)
		}
		s.retain = comp
		comp.Start()
	}
	s.ready.Store(true)
	return s, nil
}

// buildTenant is the shard.Router constructor: one engine + serving state
// per tenant. The default tenant's RNG seed is Config.Seed exactly, so a
// single-tenant deployment is bit-identical (decisions, signal draws, audit
// plans) to the pre-sharding server; other tenants fold in shard.Seed(id).
func (s *Server) buildTenant(id string) (*core.Engine, any, error) {
	var seedOffset int64
	if id != DefaultTenantID {
		seedOffset = int64(shard.Seed(id))
	}
	t := &tenantState{
		id:         id,
		seedOffset: seedOffset,
	}
	// The engine's durability hooks (called under its budget lock; it awaits
	// the group-commit wait after unlocking). t.journal is set by
	// recoverTenant before the router publishes the tenant.
	var journalFn core.JournalFunc
	if s.durable() {
		t.record = func(r core.Record) (func() error, error) {
			if p := s.journalFault.Load(); p != nil {
				if err := p.Fire(); err != nil {
					return nil, err
				}
			}
			return t.journal.Append(r)
		}
		journalFn = func(rec core.DecisionRecord) (func() error, error) {
			return t.record(core.Record{Kind: core.KindDecision, Decision: rec})
		}
	}
	engine, err := core.NewEngine(core.Config{
		Instance:  s.cfg.Instance,
		Budget:    s.cfg.Budget,
		Estimator: s.cfg.Estimator,
		Policy:    core.PolicyOSSP,
		Rand:      rand.New(rand.NewSource(s.cfg.Seed ^ seedOffset)),
		Metrics:   s.met.reg,
		// Every engine series carries the tenant label so one scrape
		// separates the tenants' budget chains and fallback activity.
		MetricLabels: []obs.Label{obs.L("tenant", id)},
		// The serving path never trades availability for optimality: a
		// failed solve degrades down the fallback ladder (last-good θ →
		// static never-warn policy) instead of surfacing as an error to the
		// EMR front end.
		Fallback: true,
		SSESolve: s.cfg.SSESolve,
		Journal:  journalFn,
	})
	if err != nil {
		return nil, nil, err
	}
	t.engine = engine
	if s.durable() {
		if err := s.recoverTenant(t); err != nil {
			return nil, nil, err
		}
	}
	return engine, t, nil
}

// Tenants returns the IDs of the resident tenants, sorted.
func (s *Server) Tenants() []string { return s.router.IDs() }

// SetReady flips the readiness gate served by GET /v1/readyz. The graceful
// shutdown path flips it false before draining so load balancers stop
// routing new traffic while in-flight requests finish.
func (s *Server) SetReady(ready bool) { s.ready.Store(ready) }

// CycleSummaries returns every resident tenant's aggregate view of its
// current cycle, keyed by tenant ID — the shutdown path logs them so no
// tenant's interrupted cycle is lost silently.
func (s *Server) CycleSummaries() map[string]core.CycleSummary {
	out := make(map[string]core.CycleSummary, s.router.Len())
	s.router.Range(func(t *shard.Tenant) bool {
		out[t.ID] = t.Engine.Summary()
		return true
	})
	return out
}

// AccessRequest is the body of POST /v1/access.
type AccessRequest struct {
	EmployeeID int `json:"employee_id"`
	PatientID  int `json:"patient_id"`
	// Tenant routes the request; empty means the X-SAG-Tenant header or,
	// absent that too, the default tenant.
	Tenant string `json:"tenant,omitempty"`
}

// AccessResponse is the decision for one access request.
type AccessResponse struct {
	// Alert reports whether any detection rule fired.
	Alert bool `json:"alert"`
	// TypeID is the taxonomy type of the alert (0 when no alert).
	TypeID int `json:"type_id,omitempty"`
	// Rules describes the fired rules.
	Rules string `json:"rules,omitempty"`
	// Warn instructs the front end to show the warning dialog.
	Warn bool `json:"warn"`
	// Flagged reports that the employee previously abandoned a warned
	// access; per the paper's §4 discussion such users are always
	// investigated.
	Flagged bool `json:"flagged,omitempty"`
	// RemainingBudget is the post-decision audit budget.
	RemainingBudget float64 `json:"remaining_budget"`
	// Fallback names the degradation rung ("last_good", "static")
	// when the decision pipeline could not complete in time; empty for a
	// fully solved decision.
	Fallback string `json:"fallback,omitempty"`
}

// QuitRequest is the body of POST /v1/quit: a warned user abandoned the
// access. Quitting reveals the requester (the paper's Theorem 3 remark),
// so the server flags the employee.
type QuitRequest struct {
	EmployeeID int    `json:"employee_id"`
	Tenant     string `json:"tenant,omitempty"`
}

// CloseRequest is the (optional) body of POST /v1/cycle/close; the close
// itself needs no parameters, the body exists to carry the tenant field.
type CloseRequest struct {
	Tenant string `json:"tenant,omitempty"`
}

// CloseResponse is the retrospective audit plan.
type CloseResponse struct {
	Audits    []core.AuditOutcome `json:"audits"`
	TotalCost float64             `json:"total_cost"`
}

// NewCycleRequest starts the next audit cycle.
type NewCycleRequest struct {
	Budget float64 `json:"budget"`
	Tenant string  `json:"tenant,omitempty"`
}

// Status is the GET /v1/status snapshot for one tenant.
type Status struct {
	// Tenant is the tenant this snapshot describes; ActiveTenants counts
	// all resident tenants on the server.
	Tenant          string  `json:"tenant"`
	ActiveTenants   int     `json:"active_tenants"`
	Budget          float64 `json:"budget"`
	RemainingBudget float64 `json:"remaining_budget"`
	Accesses        int     `json:"accesses"`
	Alerts          int     `json:"alerts"`
	Warned          int     `json:"warned"`
	Quits           int     `json:"quits"`
	FlaggedUsers    int     `json:"flagged_users"`
	NumTypes        int     `json:"num_types"`
	// Closed reports that the cycle's audit plan has been drawn: further
	// /v1/access and /v1/cycle/close calls answer 409 until /v1/cycle/new.
	Closed bool `json:"closed"`
}

// Handler returns the HTTP handler: one mux, every route behind one wrap.
// API routes carry the Config.RequestTimeout deadline and, bar /v1/metrics,
// are counted and timed; the probes, promote and the unbounded replication
// stream take no deadline and no admission gate: a saturated API cannot
// starve them.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	api := func(method, route string, h http.HandlerFunc) {
		mux.Handle(method+" "+route, s.wrap(s.newRouteMetrics(route), s.cfg.RequestTimeout, h))
	}
	for _, rt := range mutationRoutes {
		api("POST", rt.path, s.mutate(rt))
	}
	api("GET", "/v1/status", s.handleStatus)
	api("GET", "/v1/cycle/summary", s.handleCycleSummary)
	api("POST", "/v1/admin/snapshot", s.handleSnapshot)
	mux.Handle("GET /v1/metrics", s.wrap(nil, s.cfg.RequestTimeout, s.met.reg.Handler().ServeHTTP))
	mux.Handle("GET /v1/healthz", s.wrap(nil, 0, s.handleHealthz))
	mux.Handle("GET /v1/readyz", s.wrap(nil, 0, s.handleReadyz))
	mux.Handle("GET /v1/replicate", s.wrap(nil, 0, s.handleReplicate))
	mux.Handle("POST /v1/admin/promote", s.wrap(nil, 0, s.handlePromote))
	return mux
}

// wrap is the only layer between the mux and a handler, on the connection's
// own goroutine: it installs the deadline (timeout > 0; a requestDeadline,
// which arms no timer unless something waits on it), hands the handler
// the one responseWriter a request ever gets, answers a panic with 500, and
// records the outcome in met (nil: uninstrumented).
func (s *Server) wrap(met *routeMetrics, timeout time.Duration, h http.HandlerFunc) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		rw := &responseWriter{ResponseWriter: w, s: s, code: http.StatusOK}
		if timeout > 0 {
			ctx := &requestDeadline{parent: r.Context(), deadline: t0.Add(timeout)}
			defer ctx.release()
			r = r.WithContext(ctx)
		}
		if met != nil {
			s.met.inflight.Add(1)
		}
		defer func() {
			if rec := recover(); rec != nil {
				s.met.panics.Inc()
				slog.Error("handler panic", "method", r.Method, "path", r.URL.Path, "panic", rec)
				writeJSON(rw, http.StatusInternalServerError, apiError{Error: "internal error"})
			}
			if met != nil {
				s.met.inflight.Add(-1)
				met.observe(t0, rw.code)
			}
		}()
		h(rw, r)
	})
}

// RetryAfterMsHeader carries the backoff hint in integral milliseconds.
// Retry-After itself is constrained by RFC 9110 to whole delta-seconds, so
// sub-second hints round up to "1" there; clients wanting the precise hint
// read this header (cmd/sagdrill does), the rest Retry-After.
const RetryAfterMsHeader = "X-SAG-Retry-After-Ms"

// setRetryHeaders stamps both backoff headers for one hint: Retry-After as
// RFC 9110 whole seconds, X-SAG-Retry-After-Ms as precise milliseconds.
func setRetryHeaders(h http.Header, d time.Duration) {
	h.Set("Retry-After", admit.FormatRetryAfter(d))
	h.Set(RetryAfterMsHeader, admit.FormatRetryAfterMs(d))
}

// responseWriter records the status (200 when the handler never calls
// WriteHeader) and stamps backpressure responses (429 tenant limit, 503
// draining / request timeout / standby, 507 disk pressure) with Retry-After
// and X-SAG-Retry-After-Ms so clients back off. Responses that already carry
// a per-request hint — admission sheds, the disk-pressure gate — keep it; the
// rest get the admission controller's RetryHint (1s when admission control is
// off).
type responseWriter struct {
	http.ResponseWriter
	s    *Server
	code int
}

func (w *responseWriter) WriteHeader(code int) {
	w.code = code
	switch code {
	case http.StatusTooManyRequests, http.StatusServiceUnavailable, http.StatusInsufficientStorage:
		if w.Header().Get("Retry-After") == "" {
			hint := time.Second
			if w.s.admit != nil {
				hint = w.s.admit.RetryHint()
			}
			setRetryHeaders(w.Header(), hint)
		}
	}
	w.ResponseWriter.WriteHeader(code)
}

// Unwrap lets http.ResponseController reach the underlying writer: the
// replication stream's per-write deadlines and flushes ride on it.
func (w *responseWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// handleHealthz is the liveness probe: the process is up and serving.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, struct {
		Status string `json:"status"`
	}{Status: "ok"})
}

// handleReadyz is the readiness probe: 200 while accepting traffic, 503
// once graceful shutdown has begun (see SetReady). On a follower it reports
// replication catch-up instead: {"status":"following","lag_records":N},
// flipping 200 only once every tenant has caught up (lag 0).
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if !s.ready.Load() {
		writeJSON(w, http.StatusServiceUnavailable, struct {
			Status string `json:"status"`
		}{Status: "draining"})
		return
	}
	if s.following.Load() {
		lag, known := s.follow.Load().maxLag()
		code := http.StatusOK
		if !known || lag > 0 {
			code = http.StatusServiceUnavailable
		}
		writeJSON(w, code, struct {
			Status     string `json:"status"`
			LagRecords int64  `json:"lag_records"`
		}{Status: "following", LagRecords: lag})
		return
	}
	writeJSON(w, http.StatusOK, struct {
		Status string `json:"status"`
	}{Status: "ready"})
}

// rejectIfFollowing answers 503 for every tenant-addressed request while the
// server is a standby, which holds no tenant; the probes and /v1/metrics
// report catch-up.
func (s *Server) rejectIfFollowing(w http.ResponseWriter) bool {
	if !s.following.Load() {
		return false
	}
	writeJSON(w, http.StatusServiceUnavailable,
		apiError{Error: "standby follower: mutations are rejected until POST /v1/admin/promote"})
	return true
}

// jsonContentType is every response's Content-Type, one slice shared by all
// of them: net/http clones the header map at WriteHeader, and Set replaces
// a value rather than writing into it, so nothing writes to this slice.
var jsonContentType = []string{"application/json"}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header()["Content-Type"] = jsonContentType
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

type apiError struct {
	Error string `json:"error"`
}

// decodeJSON decodes a capped request body into v, answering the error
// response itself: 413 for an oversized body and — unless lenient — 400 for
// malformed JSON. A body is one JSON value: anything but whitespace after it
// is malformed. Lenient is for endpoints whose body is optional and
// historically junk-tolerant (cycle close, admin snapshot): v keeps its
// zero value, but an over-limit body is still a hard 413, not an empty
// request.
func (s *Server) decodeJSON(w http.ResponseWriter, r *http.Request, v any, lenient bool) bool {
	body, err := readBody(w, r)
	if err == nil {
		err = json.Unmarshal(body, v)
	}
	if err == nil {
		return true
	}
	// Declared past the good-body return: errors.As makes it escape.
	var tooBig *http.MaxBytesError
	switch {
	case errors.As(err, &tooBig):
		writeJSON(w, http.StatusRequestEntityTooLarge,
			apiError{Error: fmt.Sprintf("request body exceeds %d bytes", tooBig.Limit)})
		return false
	case !lenient:
		writeJSON(w, http.StatusBadRequest, apiError{Error: "invalid JSON: " + err.Error()})
		return false
	}
	return true
}

// readBody reads the body whole, capped at defaultMaxBodyBytes, into one
// buffer sized by Content-Length: one byte past it (or past the cap, which
// bounds what a false header can make the server allocate) finds EOF or the
// overflow without growing. Only a chunked body grows the buffer.
func readBody(w http.ResponseWriter, r *http.Request) ([]byte, error) {
	body := http.MaxBytesReader(w, r.Body, defaultMaxBodyBytes)
	size := int64(512)
	if r.ContentLength >= 0 {
		size = min(r.ContentLength, defaultMaxBodyBytes) + 1
	}
	buf := make([]byte, 0, size)
	for {
		n, err := body.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return nil, err
		}
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
	}
}

// SetJournalFault installs (or, with nil, removes) a fault-injection point
// fired before every WAL append — the pipeline's commit and the engine's
// decision hook alike. It exists for the journal-failure consistency suite,
// which proves a failed append leaves in-memory state identical to a
// crash-recovery replay.
func (s *Server) SetJournalFault(p *faultinject.Point) { s.journalFault.Store(p) }

// tenantID resolves the tenant a request addresses: the X-SAG-Tenant header
// wins, then the body's tenant field, then the default tenant.
func (s *Server) tenantID(r *http.Request, bodyTenant string) string {
	if h := r.Header[tenantHeaderKey]; len(h) > 0 && h[0] != "" {
		return h[0]
	}
	if bodyTenant != "" {
		return bodyTenant
	}
	return DefaultTenantID
}

// resolveTenant returns the serving state for id, answering the error
// response itself when it cannot (nil): 503 on a standby, 400 for a malformed
// ID, 429 when create-on-first-use would exceed the tenant cap, 404 for an
// unknown tenant on endpoints that must not create one, 500 for a constructor
// failure.
//
// Admission and tenant creation are where a request can wait before it
// touches tenant state, so the request deadline is checked here, once the
// tenant is resolved.
func (s *Server) resolveTenant(w http.ResponseWriter, r *http.Request, id string, create bool) *tenantState {
	if s.rejectIfFollowing(w) {
		return nil
	}
	if !shard.ValidID(id) {
		writeJSON(w, http.StatusBadRequest,
			apiError{Error: fmt.Sprintf("invalid tenant ID %q: want 1-%d chars of [A-Za-z0-9._-]", id, shard.MaxIDLength)})
		return nil
	}
	tn, ok := s.router.Get(id)
	if !ok && !create {
		writeJSON(w, http.StatusNotFound, apiError{Error: fmt.Sprintf("unknown tenant %q", id)})
		return nil
	}
	if !ok {
		var err error
		if tn, _, err = s.router.GetOrCreate(id); errors.Is(err, shard.ErrTenantLimit) {
			writeJSON(w, http.StatusTooManyRequests,
				apiError{Error: fmt.Sprintf("tenant limit reached (%d resident); tenant %q not created", s.router.Len(), id)})
			return nil
		} else if err != nil {
			writeJSON(w, http.StatusInternalServerError, apiError{Error: err.Error()})
			return nil
		}
	}
	if r.Context().Err() != nil {
		writeJSON(w, http.StatusServiceUnavailable, apiError{Error: "request timed out"})
		return nil
	}
	return tn.Data.(*tenantState)
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	// GET carries no body; the query parameter stands in for it.
	t := s.resolveTenant(w, r, s.tenantID(r, r.URL.Query().Get("tenant")), false)
	if t == nil {
		return
	}
	st := t.engine.Status()
	writeJSON(w, http.StatusOK, Status{
		Tenant:          t.id,
		ActiveTenants:   s.router.Len(),
		Budget:          st.Budget,
		RemainingBudget: st.Remaining,
		Accesses:        int(st.Accesses),
		Alerts:          int(st.Alerts),
		Warned:          int(st.Warned),
		Quits:           int(st.Quits),
		FlaggedUsers:    st.FlaggedUsers,
		NumTypes:        s.cfg.Instance.NumTypes(),
		Closed:          st.Closed,
	})
}
