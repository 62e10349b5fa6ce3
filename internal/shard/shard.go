// Package shard routes work across many independent audit-game engines —
// one per tenant — behind a single process. Each tenant (a hospital, in the
// paper's deployment story) runs its own audit cycle, budget, and OSSP
// state; the router owns the map from tenant ID to engine and bounds the
// number of resident tenants. (Solves need no bound of their own: each runs
// in microseconds on the request's goroutine, and an engine keeps nothing
// between decisions but its cycle state.)
//
// Routing is by explicit tenant ID: one map behind one RWMutex, so tenant
// lookup — on the decision hot path — takes a read lock for tens of
// nanoseconds against a request of tens of microseconds. Creation is
// serialized on its own mutex: it is rare (once per tenant lifetime),
// serializing it makes the cap check atomic, and building a tenant (which may
// recover a journal) never blocks lookups.
//
// The router deliberately knows nothing about HTTP. The serving layer
// (internal/server) stores its per-tenant request state in Tenant.Data and
// handles header parsing, create-on-first-use policy, and error mapping.
package shard

import (
	"errors"
	"fmt"
	"hash/fnv"
	"sort"
	"sync"

	"github.com/auditgames/sag/internal/core"
	"github.com/auditgames/sag/internal/obs"
)

// Shard metric names, exported so operators and tests share one spelling.
const (
	// MetricTenantsActive gauges the number of resident tenants.
	MetricTenantsActive = "sag_shard_tenants_active"
	// MetricTenantsCreatedTotal counts tenants ever created, including ones
	// since removed.
	MetricTenantsCreatedTotal = "sag_shard_tenants_created_total"
	// MetricTenantLimitTotal counts creations refused by the tenant cap.
	MetricTenantLimitTotal = "sag_shard_tenant_limit_total"
	// MetricEvictionsTotal counts tenants evicted via Remove. Before the WAL
	// an eviction silently dropped the tenant's cycle state; now every one is
	// counted, logged with its tenant ID, and (when durability is configured)
	// preceded by a snapshot via Config.OnEvict.
	MetricEvictionsTotal = "sag_shard_evictions_total"
)

// DefaultMaxTenants is Config.MaxTenants when left zero.
const DefaultMaxTenants = 64

// ErrTenantLimit reports that creating one more tenant would exceed
// Config.MaxTenants. The serving layer maps it to 429.
var ErrTenantLimit = errors.New("shard: tenant limit reached")

// MaxIDLength bounds tenant identifiers; see ValidID.
const MaxIDLength = 64

// ValidID reports whether id is an acceptable tenant identifier: 1 to
// MaxIDLength characters drawn from [A-Za-z0-9._-]. The restriction keeps
// IDs safe as metric label values and log tokens.
func ValidID(id string) bool {
	if len(id) == 0 || len(id) > MaxIDLength {
		return false
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		switch {
		case 'a' <= c && c <= 'z', 'A' <= c && c <= 'Z', '0' <= c && c <= '9':
		case c == '.' || c == '_' || c == '-':
		default:
			return false
		}
	}
	return true
}

// Seed derives a stable 64-bit value from a tenant ID (FNV-1a). The serving
// layer XORs it into its base RNG seed so every tenant gets a distinct,
// reproducible signal-sampling stream.
func Seed(id string) uint64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(id))
	return h.Sum64()
}

// Tenant is one resident tenant: its identifier, its dedicated engine, and
// an opaque slot for the embedding layer's per-tenant state (the HTTP
// server keeps its lifecycle lock, counters, and flagged-user set there).
type Tenant struct {
	ID     string
	Engine *core.Engine
	Data   any
}

// Config assembles a Router.
type Config struct {
	// New builds a tenant's engine (and optional embedder state) on first
	// use. Required. It runs under the router's creation lock, so it must
	// not call back into the router.
	New func(id string) (*core.Engine, any, error)
	// MaxTenants caps resident tenants; GetOrCreate returns ErrTenantLimit
	// beyond it. Zero or negative selects DefaultMaxTenants.
	MaxTenants int
	// Metrics receives the sag_shard_* instruments; nil uses a private
	// registry so the router's accounting always works.
	Metrics *obs.Registry
	// OnEvict, when non-nil, runs for each tenant Remove evicts — after the
	// tenant is unlinked from the map (no new lookup can reach it) but
	// before Remove returns, under the creation lock. The durable server
	// uses it to drain the tenant's in-flight work, snapshot its engine
	// state, and seal its journal so eviction is unload, not loss. It must
	// not call back into the router.
	OnEvict func(*Tenant)
	// Logf, when non-nil, receives eviction log lines (tenant ID included),
	// so unloads are always traceable. Nil disables logging.
	Logf func(format string, args ...any)
}

// Router owns the tenant map. Lock hierarchy (acquire top to bottom):
//
//	createMu — serializes tenant creation and removal; held across
//	           Config.New and Config.OnEvict.
//	mu       — RWMutex over the tenant map, held only for the map operation
//	           itself; the lookup hot path takes only this, in read mode.
//
// Engine-internal locks are below both and are never held while acquiring
// either.
type Router struct {
	cfg      Config
	createMu sync.Mutex
	mu       sync.RWMutex
	tenants  map[string]*Tenant

	active  *obs.Gauge
	created *obs.Counter
	limited *obs.Counter
	evicted *obs.Counter
}

// NewRouter validates cfg and returns an empty router.
func NewRouter(cfg Config) (*Router, error) {
	if cfg.New == nil {
		return nil, errors.New("shard: Config.New is required")
	}
	if cfg.MaxTenants <= 0 {
		cfg.MaxTenants = DefaultMaxTenants
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	r := &Router{
		cfg:     cfg,
		tenants: make(map[string]*Tenant),
		active:  reg.Gauge(MetricTenantsActive, "Resident tenants."),
		created: reg.Counter(MetricTenantsCreatedTotal, "Tenants ever created."),
		limited: reg.Counter(MetricTenantLimitTotal, "Tenant creations refused by the cap."),
		evicted: reg.Counter(MetricEvictionsTotal, "Tenants evicted (state snapshotted first when durable)."),
	}
	return r, nil
}

// Get returns the resident tenant for id, if any. This is the decision
// hot path: one read lock, no allocation.
func (r *Router) Get(id string) (*Tenant, bool) {
	r.mu.RLock()
	t, ok := r.tenants[id]
	r.mu.RUnlock()
	return t, ok
}

// GetOrCreate returns the tenant for id, building it via Config.New on
// first use. The boolean reports whether this call created the tenant.
// Creation respects MaxTenants (ErrTenantLimit beyond it).
func (r *Router) GetOrCreate(id string) (*Tenant, bool, error) {
	if t, ok := r.Get(id); ok {
		return t, false, nil
	}
	r.createMu.Lock()
	defer r.createMu.Unlock()
	if t, ok := r.Get(id); ok { // lost the creation race
		return t, false, nil
	}
	if n := r.Len(); n >= r.cfg.MaxTenants {
		r.limited.Inc()
		return nil, false, fmt.Errorf("%w (%d resident)", ErrTenantLimit, n)
	}
	eng, data, err := r.cfg.New(id)
	if err != nil {
		return nil, false, err
	}
	t := &Tenant{ID: id, Engine: eng, Data: data}
	r.mu.Lock()
	r.tenants[id] = t
	n := len(r.tenants)
	r.mu.Unlock()
	r.active.Set(float64(n))
	r.created.Inc()
	return t, true, nil
}

// Remove evicts a tenant. It reports whether the tenant was resident. The
// eviction is never silent: it is counted in sag_shard_evictions_total and
// logged with the tenant ID via Config.Logf, and Config.OnEvict runs after
// the tenant is unlinked (so the embedder can drain it, snapshot its state,
// and seal its journal) but before Remove returns.
func (r *Router) Remove(id string) bool {
	r.createMu.Lock()
	defer r.createMu.Unlock()
	r.mu.Lock()
	t, ok := r.tenants[id]
	delete(r.tenants, id)
	n := len(r.tenants)
	r.mu.Unlock()
	if !ok {
		return false
	}
	r.active.Set(float64(n))
	if r.cfg.OnEvict != nil {
		r.cfg.OnEvict(t)
	}
	r.evicted.Inc()
	if r.cfg.Logf != nil {
		r.cfg.Logf("shard: evicted tenant %s (%d resident)", t.ID, n)
	}
	return true
}

// Len returns the number of resident tenants.
func (r *Router) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.tenants)
}

// Range calls fn for every resident tenant until fn returns false. The
// iteration order is unspecified. Tenants created or removed concurrently
// may or may not be visited; fn runs over a snapshot with no router lock
// held, so it may call back into Get/GetOrCreate.
func (r *Router) Range(fn func(*Tenant) bool) {
	r.mu.RLock()
	snapshot := make([]*Tenant, 0, len(r.tenants))
	for _, t := range r.tenants {
		snapshot = append(snapshot, t)
	}
	r.mu.RUnlock()
	for _, t := range snapshot {
		if !fn(t) {
			return
		}
	}
}

// IDs returns the resident tenant IDs, sorted. It is Range distilled to the
// one projection every caller of Range-for-listing re-implemented.
func (r *Router) IDs() []string {
	ids := make([]string, 0, r.Len())
	r.Range(func(t *Tenant) bool {
		ids = append(ids, t.ID)
		return true
	})
	sort.Strings(ids)
	return ids
}
