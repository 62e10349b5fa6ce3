package server

import (
	"strconv"
	"sync/atomic"
	"time"

	"github.com/auditgames/sag/internal/obs"
)

// Server metric names. The engine's sag_engine_* family
// lands in the same registry (see core.Metric*), so one /v1/metrics scrape
// covers the whole decide/commit pipeline.
const (
	// MetricHTTPRequestsTotal counts requests by route and status code.
	MetricHTTPRequestsTotal = "sag_http_requests_total"
	// MetricHTTPRequestSeconds is a latency histogram by route.
	MetricHTTPRequestSeconds = "sag_http_request_seconds"
	// MetricAccessesTotal / MetricAlertsTotal / MetricWarnedTotal /
	// MetricQuitsTotal are cumulative service counters. Unlike the
	// /v1/status snapshot they do NOT reset on cycle rollover — Prometheus
	// counters are forever-cumulative by convention and rates are taken
	// with range queries.
	MetricAccessesTotal = "sag_server_accesses_total"
	MetricAlertsTotal   = "sag_server_alerts_total"
	MetricWarnedTotal   = "sag_server_warned_total"
	MetricQuitsTotal    = "sag_server_quits_total"
	// MetricFlaggedUsers gauges the number of currently flagged employees.
	MetricFlaggedUsers = "sag_server_flagged_users"
	// MetricHTTPLockWaitSeconds is a histogram of time spent waiting to
	// acquire the server's lifecycle lock, labeled side=read|write. The
	// read side is the decision hot path: sustained waits there mean
	// something is re-serializing the handlers.
	MetricHTTPLockWaitSeconds = "sag_http_lock_wait_seconds"
	// MetricHTTPInflightRequests gauges requests currently inside an
	// instrumented handler.
	MetricHTTPInflightRequests = "sag_http_inflight_requests"
	// MetricHTTPTenantRequestsTotal counts API requests by the tenant they
	// resolved to (after validation, before the handler body).
	MetricHTTPTenantRequestsTotal = "sag_http_tenant_requests_total"
)

// serverMetrics holds the server-wide pre-resolved instruments — the
// route-level middleware and the lifecycle-lock histograms, which span all
// tenants. All fields are non-nil: the server always owns a registry (its
// own when the caller supplied none) so that GET /v1/metrics is always
// live. Per-tenant series live in tenantMetrics.
type serverMetrics struct {
	reg      *obs.Registry
	lockWait [2]*obs.Histogram // indexed by lockSide
	inflight *obs.Gauge
	panics   *obs.Counter
}

func newServerMetrics(reg *obs.Registry) serverMetrics {
	if reg == nil {
		reg = obs.NewRegistry()
	}
	const lockHelp = "Time waiting to acquire a tenant lifecycle lock, by side."
	return serverMetrics{
		reg: reg,
		lockWait: [2]*obs.Histogram{
			readSide:  reg.Histogram(MetricHTTPLockWaitSeconds, lockHelp, obs.DefTimeBuckets, obs.L("side", "read")),
			writeSide: reg.Histogram(MetricHTTPLockWaitSeconds, lockHelp, obs.DefTimeBuckets, obs.L("side", "write")),
		},
		inflight: reg.Gauge(MetricHTTPInflightRequests, "Requests currently inside an instrumented handler."),
		panics:   reg.Counter(MetricHTTPPanicsTotal, "Handler panics contained by the route wrapper."),
	}
}

// tenantMetrics holds one tenant's pre-resolved instruments; every series
// carries tenant="<id>", matching the label the tenant's engine stamps on
// its sag_engine_* series.
type tenantMetrics struct {
	requests *obs.Counter
	accesses *obs.Counter
	alerts   *obs.Counter
	warned   *obs.Counter
	quits    *obs.Counter
	flagged  *obs.Gauge
}

func newTenantMetrics(reg *obs.Registry, tenant string) tenantMetrics {
	l := obs.L("tenant", tenant)
	return tenantMetrics{
		requests: reg.Counter(MetricHTTPTenantRequestsTotal, "API requests by resolved tenant.", l),
		accesses: reg.Counter(MetricAccessesTotal, "Access requests evaluated.", l),
		alerts:   reg.Counter(MetricAlertsTotal, "Accesses on which a detection rule fired.", l),
		warned:   reg.Counter(MetricWarnedTotal, "Accesses answered with a warning.", l),
		quits:    reg.Counter(MetricQuitsTotal, "Warned accesses reported abandoned.", l),
		flagged:  reg.Gauge(MetricFlaggedUsers, "Employees currently flagged as quitters.", l),
	}
}

// routeMetrics is one instrumented route's pre-resolved instruments: the
// latency histogram and a requests counter per status code, resolved on a
// code's first use, so serving a request never formats labels or takes the
// registry lock. The route label is the mount pattern's path, so
// cardinality stays bounded by the route table.
type routeMetrics struct {
	reg     *obs.Registry
	route   string
	latency *obs.Histogram
	codes   [600]atomic.Pointer[obs.Counter] // indexed by status code
}

func (s *Server) newRouteMetrics(route string) *routeMetrics {
	return &routeMetrics{reg: s.met.reg, route: route, latency: s.met.reg.Histogram(MetricHTTPRequestSeconds,
		"HTTP request latency in seconds by route.", obs.DefTimeBuckets, obs.L("route", route))}
}

// observe records one finished request.
func (m *routeMetrics) observe(t0 time.Time, code int) {
	m.latency.ObserveSince(t0)
	if uint(code) >= uint(len(m.codes)) {
		code = 0 // net/http admits up to 999; no handler writes one
	}
	c := m.codes[code].Load()
	if c == nil {
		c = m.reg.Counter(MetricHTTPRequestsTotal, "HTTP requests by route and status code.",
			obs.L("route", m.route), obs.L("code", strconv.Itoa(code)))
		m.codes[code].Store(c)
	}
	c.Inc()
}

// Metrics returns the server's registry — the one /v1/metrics serves —
// so embedders (e.g. cmd/sagserver's debug listener) can export or extend
// the same instrument set.
func (s *Server) Metrics() *obs.Registry { return s.met.reg }
