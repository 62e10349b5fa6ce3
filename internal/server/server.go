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
// state, and RNG stream. Tenants are created on first use up to
// Config.MaxTenants (429 beyond it); the world, detection rules, and game
// instance — all immutable during serving — are shared.
//
// Concurrency: the serving hot path is not globally serialized. Tenants
// share no lock across a decision; within one tenant /v1/access requests
// take only the read side of the cycle lifecycle lock and overlap
// everywhere except the gamed decision itself, which the engine estimates,
// solves, journals and commits under its budget lock (see core.Engine) —
// the durability wait runs outside it, so one hot tenant still shares
// fsyncs. /v1/cycle/close and /v1/cycle/new take that tenant's write side
// and drain its in-flight decisions before the rollover. Per-cycle counters
// are atomics and each tenant's flagged-user set has its own small mutex.
// The full locking hierarchy is documented in DESIGN.md.
//
// The serving path is hardened for production shapes: request bodies are
// capped (Config.MaxBodyBytes), a failed solve degrades gracefully (the
// fallback ladder in internal/fallback) instead of erroring, and
// Run provides the full listener lifecycle — server timeouts, health-gated
// draining, and coordinated shutdown of the main and debug listeners.
//
// A request is served start to finish on its connection's goroutine, behind
// one mux and one wrapper (Server.wrap): context deadline, panic containment,
// Retry-After stamping, status/latency metrics. Config.RequestTimeout is
// honoured where a request can wait — admission queue, lifecycle lock, solve
// — and last by the engine immediately before it commits; after that the
// request is answered however late. So 503 "request timed out" means NOT
// applied (no counter, charge, signal draw or journal record): safe to retry.
// Code that ignores its context is bounded only by http.Server.WriteTimeout.
//
// The four mutation routes are rows of one table run by one pipeline
// (mutate.go): gates → validate → resolve and lock → decide → journal and
// wait → applyRecord → answer. Per-cycle state changes only in applyRecord —
// the function boot replay and followers run — and only after the record is
// durable, so live state equals replay of the journal by construction, a
// refused or failed request leaves nothing to undo, and a request invalid on
// its face is refused before it can create a tenant.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
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
	"github.com/auditgames/sag/internal/replica"
	"github.com/auditgames/sag/internal/retain"
	"github.com/auditgames/sag/internal/shard"
	"github.com/auditgames/sag/internal/wal"
)

// TenantHeader is the request header naming the tenant an API call is for.
// It wins over the "tenant" body field; absent both, the request routes to
// Config.DefaultTenant.
const TenantHeader = "X-SAG-Tenant"

// tenantHeaderKey is TenantHeader as http.Header stores it. Header.Get
// would canonicalise the constant again, allocating, on every request.
var tenantHeaderKey = http.CanonicalHeaderKey(TenantHeader)

// DefaultTenantID is the tenant used when Config.DefaultTenant is empty and
// a request names no tenant.
const DefaultTenantID = "default"

// defaultMaxBodyBytes caps request bodies when Config.MaxBodyBytes is zero.
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
	// instance is shared by every tenant engine: payoffs are immutable.
	// Budget is each new tenant's initial cycle budget. Seed seeds the
	// default tenant's RNG exactly; other tenants fold in a hash of their
	// ID (see shard.Seed) so streams are distinct but reproducible.
	Instance  *game.Instance
	Budget    float64
	Estimator core.Estimator
	Seed      int64
	// NewEstimator, when non-nil, builds a dedicated estimator per tenant —
	// required for stateful estimators (the knowledge-rollback history
	// estimator), which must not share observation state across tenants.
	// When nil, every tenant engine shares Estimator; that is only sound
	// for stateless estimators (fixed rate curves).
	NewEstimator func(tenant string) (core.Estimator, error)
	// MaxTenants caps resident tenants; creation beyond it answers 429.
	// Zero selects shard.DefaultMaxTenants.
	MaxTenants int
	// DefaultTenant names the tenant used by requests that carry none;
	// empty selects DefaultTenantID. It is created eagerly by New.
	DefaultTenant string
	// MaxBodyBytes caps request bodies; oversized ones answer 413. Zero
	// selects 1 MiB.
	MaxBodyBytes int64
	// Clock returns the current offset within the audit cycle; defaults to
	// wall-clock time-of-day. Tests inject a fake.
	Clock func() time.Duration
	// Metrics, when non-nil, is the registry served by GET /v1/metrics and
	// shared with the game engines. When nil the server creates a private
	// registry, so the endpoint is always live. Engine and per-tenant
	// server series carry a tenant="<id>" label.
	Metrics *obs.Registry
	// RequestTimeout is each API request's context deadline: a request still
	// waiting (admission, lifecycle lock, solve) when it passes is answered
	// 503 "request timed out" having changed nothing; one that has committed
	// is answered normally. Zero installs no deadline.
	RequestTimeout time.Duration
	// Admission configures overload protection for the mutation hot path
	// (/v1/access and /v1/quit): per-tenant token-bucket rate limits, a
	// box-wide inflight cap with a bounded round-robin-fair admission
	// queue; a shed is 503 + computed Retry-After. The zero value admits
	// everything. A queued request waits no longer than its own context
	// (RequestTimeout). See internal/admit.
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
	// SnapshotEvery is the automatic snapshot cadence in journal records
	// per tenant; zero selects DefaultSnapshotEvery. Only meaningful with
	// DataDir.
	SnapshotEvery int
	// SegmentBytes overrides the journal segment roll size; zero keeps
	// wal.DefaultSegmentBytes. Only meaningful with DataDir. Drills shrink
	// it to force segment rolls (and snapshot pruning) quickly.
	SegmentBytes int64
	// DiskBudgetBytes, when positive, bounds the box-wide journal footprint:
	// a background compactor (see internal/retain) accounts every resident
	// tenant's journal bytes against this budget and schedules
	// snapshot-then-prune on the tenants holding the most reclaimable bytes.
	// When the box stays over budget and a tenant has nothing left to
	// reclaim, its hot-path mutations answer 507 + Retry-After. Zero
	// disables retention (journals grow until their own snapshot cadence
	// prunes them). Only meaningful with DataDir.
	DiskBudgetBytes int64
	// CompactInterval is the retention compactor's scan cadence; zero
	// selects retain.DefaultInterval. Only meaningful with DiskBudgetBytes.
	CompactInterval time.Duration
	// FollowPrimary, when non-empty, starts the server as a hot standby of
	// the primary at this base URL: every durable tenant is replicated via
	// WAL log shipping (see internal/replica), reads are served from the
	// warm engines, and every mutation answers 503 until POST
	// /v1/admin/promote. Requires DataDir.
	FollowPrimary string
	// Logf receives server log lines (recovery banners, truncation notices,
	// eviction traces). Nil disables logging.
	Logf func(format string, args ...any)
}

// tenantState is one tenant's serving state: its engine plus the HTTP
// layer's per-tenant lifecycle and counters. It rides in shard.Tenant.Data.
//
// Locking hierarchy (acquire top to bottom, never upward):
//
//	lifecycle — RWMutex over this tenant's cycle transitions. /v1/access
//	            and /v1/quit hold the read side from resolve to answer, so
//	            any number overlap; /v1/cycle/close and /v1/cycle/new hold
//	            the write side, so a rollover waits for in-flight decisions
//	            and no decision ever spans a cycle boundary. Guards closed.
//	flaggedMu — RWMutex over this tenant's flagged-quitter set only; never
//	            held across a journal wait.
//	engine    — core.Engine's budget lock, then the journal's.
//
// Per-cycle counters (accesses, alerts, warned, quits) are atomics written
// only by applyRecord, countAccess and restoreSnapshot, and read by
// /v1/status, snapshots and the close's seed derivation.
type tenantState struct {
	id         string
	seedOffset int64 // folded into RNG seeds; 0 for the default tenant
	engine     *core.Engine
	est        core.Estimator // this tenant's estimator (for state snapshots)
	met        tenantMetrics
	// journal is nil when durability is disabled and on a standby until
	// Promote installs it (under the lifecycle write lock): a reader holding
	// neither side of lifecycle goes through lockedJournal.
	journal *wal.Journal

	lifecycle sync.RWMutex
	closed    bool // cycle closed, awaiting /v1/cycle/new; guarded by lifecycle
	// sealed is set (under lifecycle) when eviction has snapshotted the
	// tenant and closed its journal. A request that resolved this holder
	// before the router unlinked it must not use it — re-resolving rebuilds
	// the tenant from the sealed journal (see resolveTenant).
	sealed bool

	flaggedMu sync.RWMutex
	flagged   map[int]bool

	accesses atomic.Int64
	alerts   atomic.Int64
	warned   atomic.Int64
	quits    atomic.Int64

	walRecords   atomic.Int64 // journal records since the last snapshot
	snapshotting atomic.Bool  // one background snapshot at a time
	lastAppend   atomic.Int64 // unix nanos of the last journal append (retention idleness)

	// repl is the follower-side replication position recovered from the
	// tenant's mirrored journal at build time, and written back by the
	// replication client when it stops (synchronized by the follow
	// controller's WaitGroup; promotion reads it after the clients exit).
	repl replica.State
}

// Server is the HTTP facade. Create with New and mount via Handler.
type Server struct {
	detector  *alerts.Engine
	cfg       Config
	met       serverMetrics
	typeIdx   map[int]int // taxonomy ID → engine index
	router    *shard.Router
	defaultID string
	maxBody   int64
	ready     atomic.Bool

	// admit is the admission controller gating the mutation hot path; nil
	// when Config.Admission is the zero value (admit everything).
	admit *admit.Controller

	// retain is the background retention compactor bounding journal disk
	// use; nil unless DataDir and DiskBudgetBytes are both set.
	retain *retain.Compactor

	// following is true while the server is a replicating standby; flipped
	// false (permanently) by Promote. Mutation handlers gate on it.
	following atomic.Bool
	follow    atomic.Pointer[followController] // set by StartFollowing
	promoteMu sync.Mutex                       // serializes Promote, and Close against it
	closed    bool                             // Close has run: a later Promote opens nothing; guarded by promoteMu

	// journalFault, when set, is fired before every WAL append (see
	// appendRecord). Testing seam for the journal-failure consistency suite
	// (SetJournalFault).
	journalFault atomic.Pointer[faultinject.Point]
}

// New validates the configuration and builds the server. The default
// tenant is created eagerly, so a single-tenant deployment never pays the
// create-on-first-use path.
func New(cfg Config) (*Server, error) {
	if cfg.World == nil || cfg.Taxonomy == nil {
		return nil, errors.New("server: World and Taxonomy are required")
	}
	if cfg.Instance == nil {
		return nil, errors.New("server: Instance is required")
	}
	if cfg.Estimator == nil && cfg.NewEstimator == nil {
		return nil, errors.New("server: Estimator or NewEstimator is required")
	}
	if len(cfg.TypeIDs) != cfg.Instance.NumTypes() {
		return nil, fmt.Errorf("server: %d type IDs for %d engine types", len(cfg.TypeIDs), cfg.Instance.NumTypes())
	}
	if cfg.DefaultTenant == "" {
		cfg.DefaultTenant = DefaultTenantID
	}
	if !shard.ValidID(cfg.DefaultTenant) {
		return nil, fmt.Errorf("server: invalid default tenant %q", cfg.DefaultTenant)
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = defaultMaxBodyBytes
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
		detector:  detector,
		cfg:       cfg,
		met:       newServerMetrics(cfg.Metrics),
		typeIdx:   idx,
		defaultID: cfg.DefaultTenant,
		maxBody:   cfg.MaxBodyBytes,
	}
	if cfg.Admission.Enabled() {
		adm := cfg.Admission
		if adm.MaxTenants == 0 {
			// Gate bookkeeping is tiny; 4× the resident-tenant cap leaves
			// room for evicted tenants whose clients are still arriving.
			residents := cfg.MaxTenants
			if residents <= 0 {
				residents = shard.DefaultMaxTenants
			}
			adm.MaxTenants = 4 * residents
		}
		if adm.Metrics == nil {
			adm.Metrics = s.met.reg
		}
		ctl, err := admit.New(adm)
		if err != nil {
			return nil, fmt.Errorf("server: admission: %w", err)
		}
		s.admit = ctl
	}
	// Set before the first buildTenant call: follower tenants recover their
	// local mirror instead of opening a writable journal.
	s.following.Store(cfg.FollowPrimary != "")
	s.router, err = shard.NewRouter(shard.Config{
		New:        s.buildTenant,
		MaxTenants: cfg.MaxTenants,
		Metrics:    s.met.reg,
		OnEvict:    s.evictTenant,
		Logf:       cfg.Logf,
	})
	if err != nil {
		return nil, err
	}
	if _, _, err := s.router.GetOrCreate(s.defaultID); err != nil {
		return nil, err
	}
	if s.durable() && cfg.DiskBudgetBytes > 0 {
		comp, err := retain.New(retain.Config{
			BudgetBytes: cfg.DiskBudgetBytes,
			Interval:    cfg.CompactInterval,
			List:        s.listRetainTenants,
			Metrics:     s.met.reg,
			Logf:        cfg.Logf,
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
	if id != s.defaultID {
		seedOffset = int64(shard.Seed(id))
	}
	est := s.cfg.Estimator
	if s.cfg.NewEstimator != nil {
		var err error
		if est, err = s.cfg.NewEstimator(id); err != nil {
			return nil, nil, fmt.Errorf("server: estimator for tenant %q: %w", id, err)
		}
	}
	t := &tenantState{
		id:         id,
		seedOffset: seedOffset,
		est:        est,
		met:        newTenantMetrics(s.met.reg, id),
		flagged:    make(map[int]bool),
	}
	// The engine's durability hook: enqueue the committed decision on this
	// tenant's journal (the engine calls it under its budget lock, in commit
	// order, and awaits the returned group-commit wait after unlocking).
	// t.journal is set by openTenantJournal before the router publishes the
	// tenant — except on a follower, where it stays nil until Promote opens
	// it; the mutation gate keeps decisions out until then.
	var journalFn core.JournalFunc
	if s.durable() {
		journalFn = func(rec core.DecisionRecord) (func() error, error) {
			return s.appendRecord(t, wal.Record{Kind: wal.KindDecision, Decision: rec})
		}
	}
	engine, err := core.NewEngine(core.Config{
		Instance:  s.cfg.Instance,
		Budget:    s.cfg.Budget,
		Estimator: est,
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
	switch {
	case s.durable() && s.following.Load():
		// Follower: recover whatever the mirror already holds so the engine
		// is warm, but leave the journal closed — the replication client owns
		// the directory until Promote.
		if err := s.recoverTenantLocal(t); err != nil {
			return nil, nil, err
		}
	case s.durable():
		// Open (and recover) the tenant's journal before the router publishes
		// the tenant: a restart restores the snapshot + replays the tail, so
		// the first request after boot continues the interrupted cycle.
		if err := s.openTenantJournal(t); err != nil {
			return nil, nil, err
		}
	}
	return engine, t, nil
}

// EnsureTenant creates the tenant if it is not yet resident — the
// pre-provisioning hook cmd/sagserver's -tenants flag uses so benchmarked
// tenants skip the create-on-first-use path.
func (s *Server) EnsureTenant(id string) error {
	if !shard.ValidID(id) {
		return fmt.Errorf("server: invalid tenant ID %q", id)
	}
	_, _, err := s.router.GetOrCreate(id)
	return err
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
// own goroutine: it installs the deadline (timeout > 0), hands the handler
// the one responseWriter a request ever gets, answers a panic with 500, and
// records the outcome in met (nil: uninstrumented).
func (s *Server) wrap(met *routeMetrics, timeout time.Duration, h http.HandlerFunc) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		rw := &responseWriter{ResponseWriter: w, s: s, code: http.StatusOK}
		if timeout > 0 {
			ctx, cancel := context.WithTimeout(r.Context(), timeout)
			defer cancel()
			r = r.WithContext(ctx)
		}
		if met != nil {
			s.met.inflight.Add(1)
		}
		defer func() {
			if rec := recover(); rec != nil {
				s.met.panics.Inc()
				log.Printf("server: panic in %s %s: %v", r.Method, r.URL.Path, rec)
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
// (cmd/sagload does) read this header and fall back to Retry-After.
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
// rest get the one the admission controller derives from the observed queue
// drain rate (1s when admission control is off).
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

// rejectIfFollowing answers 503 for mutations while the server is a standby;
// reads stay available so operators can inspect catch-up state.
func (s *Server) rejectIfFollowing(w http.ResponseWriter) bool {
	if !s.following.Load() {
		return false
	}
	writeJSON(w, http.StatusServiceUnavailable,
		apiError{Error: "standby follower: mutations are rejected until POST /v1/admin/promote"})
	return true
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

type apiError struct {
	Error string `json:"error"`
}

// decodeJSON decodes a capped request body into v, answering the error
// response itself: 413 for an oversized body and — unless lenient — 400 for
// malformed JSON. Lenient is for endpoints whose body is optional and
// historically junk-tolerant (cycle close, admin snapshot): v keeps its
// zero value, but an over-limit body is still a hard 413, not an empty
// request.
func (s *Server) decodeJSON(w http.ResponseWriter, r *http.Request, v any, lenient bool) bool {
	r.Body = http.MaxBytesReader(w, r.Body, s.maxBody)
	err := json.NewDecoder(r.Body).Decode(v)
	var tooBig *http.MaxBytesError
	switch {
	case errors.As(err, &tooBig):
		writeJSON(w, http.StatusRequestEntityTooLarge,
			apiError{Error: fmt.Sprintf("request body exceeds %d bytes", tooBig.Limit)})
		return false
	case err != nil && !lenient:
		writeJSON(w, http.StatusBadRequest, apiError{Error: "invalid JSON: " + err.Error()})
		return false
	}
	return true
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
	return s.defaultID
}

// lockSide says which side of a tenant's lifecycle lock a caller takes;
// readSide and writeSide index serverMetrics.lockWait.
type lockSide int

const (
	noLock lockSide = iota - 1
	readSide
	writeSide
)

// resolveTenant returns the serving state for id with its lifecycle lock
// held on side (the caller releases it with unlockLifecycle), answering the
// error response itself when it cannot (nil): 400 for a malformed ID, 429
// when create-on-first-use would exceed the tenant cap, 404 for an unknown
// tenant on endpoints that must not create one, 500 for a constructor
// failure. It retries when the tenant was evicted between resolution and the
// lock: the sealed holder is already unlinked from the router, so the retry
// rebuilds the tenant from its journal; the bound only turns a pathological
// eviction storm into a retryable 503 instead of a spin.
//
// Admission and this lock are where a request can wait before it touches
// tenant state, so the request deadline is checked here, lock in hand.
func (s *Server) resolveTenant(w http.ResponseWriter, r *http.Request, id string, create bool, side lockSide) *tenantState {
	if !shard.ValidID(id) {
		writeJSON(w, http.StatusBadRequest,
			apiError{Error: fmt.Sprintf("invalid tenant ID %q: want 1-%d chars of [A-Za-z0-9._-]", id, shard.MaxIDLength)})
		return nil
	}
	for attempt := 0; attempt < 16; attempt++ {
		tn, ok := s.router.Get(id)
		// A durable tenant that was evicted (or predates this boot) is
		// unloaded, not unknown: restore it from its journal on first use,
		// even on endpoints that never create fresh tenants.
		if !ok && !create && !(s.durable() && s.tenantOnDisk(id)) {
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
		t := tn.Data.(*tenantState)
		t.met.requests.Inc()
		if side == noLock {
			return t
		}
		s.lockLifecycle(t, side)
		timedOut := r.Context().Err() != nil
		if !t.sealed && !timedOut {
			return t
		}
		t.unlockLifecycle(side)
		if timedOut {
			writeJSON(w, http.StatusServiceUnavailable, apiError{Error: "request timed out"})
			return nil
		}
	}
	writeJSON(w, http.StatusServiceUnavailable,
		apiError{Error: fmt.Sprintf("tenant %q is being evicted; retry", id)})
	return nil
}

// lockLifecycle acquires one side of a tenant's lifecycle lock, observing
// the wait in sag_http_lock_wait_seconds so re-serialization regressions
// show up on dashboards before they show up as latency.
func (s *Server) lockLifecycle(t *tenantState, side lockSide) {
	t0 := time.Now()
	if side == writeSide {
		t.lifecycle.Lock()
	} else {
		t.lifecycle.RLock()
	}
	s.met.lockWait[side].ObserveSince(t0)
}

func (t *tenantState) unlockLifecycle(side lockSide) {
	if side == writeSide {
		t.lifecycle.Unlock()
	} else {
		t.lifecycle.RUnlock()
	}
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	// GET carries no body; the query parameter stands in for it.
	t := s.resolveTenant(w, r, s.tenantID(r, r.URL.Query().Get("tenant")), false, readSide)
	if t == nil {
		return
	}
	closed := t.closed
	t.lifecycle.RUnlock()
	t.flaggedMu.RLock()
	flagged := len(t.flagged)
	t.flaggedMu.RUnlock()
	writeJSON(w, http.StatusOK, Status{
		Tenant:          t.id,
		ActiveTenants:   s.router.Len(),
		Budget:          t.engine.InitialBudget(),
		RemainingBudget: t.engine.RemainingBudget(),
		Accesses:        int(t.accesses.Load()),
		Alerts:          int(t.alerts.Load()),
		Warned:          int(t.warned.Load()),
		Quits:           int(t.quits.Load()),
		FlaggedUsers:    flagged,
		NumTypes:        s.cfg.Instance.NumTypes(),
		Closed:          closed,
	})
}
