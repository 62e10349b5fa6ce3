// Package admit is the serving stack's admission-control layer. It decides,
// before any engine work happens, whether a request may run now, must wait
// in a bounded queue, or should be shed with a 503 and a Retry-After hint.
//
// The design mirrors the paper's core tension — a defender rationing a fixed
// audit budget across adversarial requests — at the systems layer: the box
// has a fixed solver/CPU budget, and under overload it must ration that
// budget across tenants instead of degrading everyone equally.
//
// It is one mechanism. A box-wide cap (MaxInflight) bounds the requests
// running at once. When every slot is busy, a request waits in its tenant's
// FIFO; the FIFOs together hold at most QueueDepth waiters, and freed slots
// are granted round-robin across tenants with non-empty queues, so a greedy
// tenant's deep queue cannot starve a polite tenant's shallow one. A full
// queue is shared by longest-queue drop: an arrival pushes out the newest
// waiter of the longest queue, so the backlog a greedy tenant built absorbs
// the drops and a tenant asking for little always finds room.
//
// Invariant: a free slot and a non-empty queue never coexist — a request
// queues only when every slot is busy, and every freed slot goes straight to
// a waiter. A queued request waits until it is granted, pushed out, or its
// context ends: the request's own deadline is the only clock on the wait.
//
// The backoff hint on a shed is the head-of-line sojourn — how long the
// oldest queued request has been waiting (CoDel's signal) — so it reads the
// floor on an idle queue, the wait a back-of-queue arrival would see under a
// standing backlog, and grows to the cap when the box stalls.
//
// Admission runs before the tenant is resolved, so a tenant ID here is
// whatever the client sent: the controller keeps per-tenant state only while
// that tenant has a queued waiter, and its metrics carry no tenant label.
//
// All methods are safe for concurrent use.
package admit

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"strconv"
	"sync"
	"time"

	"github.com/auditgames/sag/internal/obs"
)

// Metric names exported by the controller. None carries a tenant label.
const (
	// MetricAdmittedTotal counts admitted requests, labeled by how they got
	// in: reason="direct" (a slot was free) or "queued".
	MetricAdmittedTotal = "sag_admit_admitted_total"
	// MetricShedTotal counts rejected requests, labeled by reason
	// ("queue_full", "canceled").
	MetricShedTotal = "sag_admit_shed_total"
	// MetricQueuedTotal counts requests that entered the admission queue.
	MetricQueuedTotal = "sag_admit_queued_total"
	// MetricQueueWaitSeconds is a histogram of time spent queued before
	// admission (sheds and cancellations are not observed here).
	MetricQueueWaitSeconds = "sag_admit_queue_wait_seconds"
	// MetricInflight / MetricQueueDepth are gauges of current occupancy.
	MetricInflight   = "sag_admit_inflight"
	MetricQueueDepth = "sag_admit_queue_depth"
)

// Shed reasons, also used as the reason label on MetricShedTotal.
const (
	// ReasonQueueFull: every slot was busy and the queue was at QueueDepth.
	ReasonQueueFull = "queue_full"
	// ReasonCanceled: the caller's context ended while queued.
	ReasonCanceled = "canceled"
)

// Admitted reasons on MetricAdmittedTotal.
const (
	reasonDirect = "direct"
	reasonQueued = "queued"
)

// minRetryAfter and maxRetryAfter clamp every hint. The floor is what an
// empty queue — or QueueDepth 0 — answers; past the cap the honest answer is
// "much later", and a bounded hint keeps well-behaved clients from parking
// for minutes on one stalled head.
const (
	minRetryAfter = 10 * time.Millisecond
	maxRetryAfter = 30 * time.Second
)

// Config parameterizes a Controller. The zero value disables admission
// control entirely (Enabled returns false); servers treat that as "admit
// everything", preserving pre-admission behavior.
type Config struct {
	// MaxInflight bounds concurrently admitted requests box-wide. 0 disables
	// admission control.
	MaxInflight int
	// QueueDepth bounds the box-wide admission queue. 0 means no queue:
	// a request that cannot run immediately is shed.
	QueueDepth int
	// MaxTenants is ignored: the controller holds per-tenant state only for
	// tenants with a queued waiter, at most QueueDepth of them. It remains
	// only because benchmark/shadow.go:160 sets it; remove it with the next
	// change to benchmark/.
	MaxTenants int
	// Now overrides the clock (tests). Nil means time.Now.
	Now func() time.Time
	// Metrics receives the sag_admit_* series. Nil disables metrics.
	Metrics *obs.Registry
}

// Enabled reports whether this configuration imposes any admission policy.
func (c Config) Enabled() bool { return c.MaxInflight > 0 }

// ShedError is returned by Admit when a request is rejected. RetryAfter is
// the backoff hint, within [10ms, 30s].
type ShedError struct {
	Tenant     string
	Reason     string
	RetryAfter time.Duration
}

func (e *ShedError) Error() string {
	return fmt.Sprintf("admit: tenant %q shed (%s), retry after %v", e.Tenant, e.Reason, e.RetryAfter)
}

// FormatRetryAfter renders a hint for a Retry-After header. RFC 9110 §10.2.3
// allows only non-negative integral delta-seconds (or an HTTP-date), so every
// hint is rounded up to whole seconds with a floor of "1" — a decimal like
// "0.25" is spec-invalid and strict proxies and clients reject or misparse
// it. Clients wanting sub-second precision read X-SAG-Retry-After-Ms (see
// FormatRetryAfterMs), which carries the same hint in integral milliseconds.
func FormatRetryAfter(d time.Duration) string {
	s := int(math.Ceil(d.Seconds()))
	if s < 1 {
		s = 1
	}
	return strconv.Itoa(s)
}

// FormatRetryAfterMs renders a hint for the X-SAG-Retry-After-Ms header:
// integral milliseconds, rounded up, floored at 1. The companion to
// FormatRetryAfter — Retry-After stays spec-valid coarse seconds while this
// header preserves the precision a 50ms backlog deserves (rounding it up to
// "1" second would tell clients to wait 20× longer than needed).
func FormatRetryAfterMs(d time.Duration) string {
	ms := (d + time.Millisecond - 1) / time.Millisecond
	if ms < 1 {
		ms = 1
	}
	return strconv.FormatInt(int64(ms), 10)
}

// waiter is one queued request.
type waiter struct {
	g     *gate
	ready chan struct{} // closed by grantLocked or a push-out eviction
	enq   time.Time

	// granted is set (under Controller.mu) when a slot has been assigned.
	// A canceled waiter that lost this race must give the slot back.
	granted bool
	// err is set (under Controller.mu) when the waiter was pushed out of a
	// full queue to make room for a tenant with a shorter one.
	err *ShedError
}

// gate is one tenant's FIFO. It exists only while the queue is non-empty:
// created on enqueue, dropped by dequeueLocked when the last waiter leaves.
// Guarded by Controller.mu.
type gate struct {
	id    string
	queue []*waiter
}

// Controller is the admission-control state machine. Create with New.
type Controller struct {
	cfg Config
	now func() time.Time

	admittedDirect *obs.Counter
	admittedQueued *obs.Counter
	queuedTotal    *obs.Counter
	shed           map[string]*obs.Counter // by reason; nil without metrics
	queueWait      *obs.Histogram
	inflightG      *obs.Gauge
	queuedG        *obs.Gauge

	mu       sync.Mutex
	gates    map[string]*gate // exactly the tenants with queued waiters
	rr       []*gate          // the same gates, in round-robin order
	rrIdx    int
	inflight int
	queued   int
}

// New validates cfg and returns a Controller. It errors if cfg.Enabled() is
// false or QueueDepth is negative.
func New(cfg Config) (*Controller, error) {
	if !cfg.Enabled() {
		return nil, errors.New("admit: config enables no admission policy (set MaxInflight)")
	}
	if cfg.QueueDepth < 0 {
		return nil, errors.New("admit: negative queue depth")
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	c := &Controller{
		cfg:   cfg,
		now:   cfg.Now,
		gates: make(map[string]*gate),
	}
	if reg := cfg.Metrics; reg != nil {
		c.admittedDirect = reg.Counter(MetricAdmittedTotal,
			"Requests admitted, by admission path.", obs.L("reason", reasonDirect))
		c.admittedQueued = reg.Counter(MetricAdmittedTotal, "", obs.L("reason", reasonQueued))
		c.queuedTotal = reg.Counter(MetricQueuedTotal, "Requests that entered the admission queue.")
		c.shed = map[string]*obs.Counter{
			ReasonQueueFull: reg.Counter(MetricShedTotal, "Requests shed, by reason.", obs.L("reason", ReasonQueueFull)),
			ReasonCanceled:  reg.Counter(MetricShedTotal, "", obs.L("reason", ReasonCanceled)),
		}
		c.queueWait = reg.Histogram(MetricQueueWaitSeconds,
			"Time spent in the admission queue before a slot was granted.", obs.DefWaitBuckets)
		c.inflightG = reg.Gauge(MetricInflight, "Requests currently admitted and running.")
		c.queuedG = reg.Gauge(MetricQueueDepth, "Requests currently waiting in the admission queue.")
	}
	return c, nil
}

// Admit asks to run one request for tenant. On admission it returns a
// release function that MUST be called exactly once when the request
// finishes (it frees the slot; it is idempotent as a safety net). On
// rejection it returns a *ShedError with the reason and a Retry-After.
//
// Admit blocks only when the request is queued, and then until a slot is
// granted, the waiter is pushed out, or ctx is done.
func (c *Controller) Admit(ctx context.Context, tenant string) (release func(), err error) {
	c.mu.Lock()
	// A free slot means nobody is queued ahead (a freed slot always goes to
	// a waiter first), so the request runs now and touches no tenant state.
	if c.inflight < c.cfg.MaxInflight {
		c.inflight++
		c.inflightG.Set(float64(c.inflight))
		c.mu.Unlock()
		c.admittedDirect.Inc()
		return c.releaseFunc(), nil
	}

	// Queue, or shed. A full queue is shared fairly by push-out: the arrival
	// evicts the newest waiter of the longest queue, so a greedy tenant's
	// backlog absorbs the drops and can never wall off the queue from
	// tenants asking for little. Only when the arriving tenant itself owns
	// (or ties) the longest queue is the arrival the one shed. (With
	// QueueDepth 0 nobody is ever queued, so there is nobody to evict.)
	now := c.now()
	g := c.gates[tenant]
	if c.queued >= c.cfg.QueueDepth && !c.pushOutLocked(g, now) {
		err := c.shedLocked(tenant, ReasonQueueFull, now)
		c.mu.Unlock()
		return nil, err
	}
	if g == nil {
		g = &gate{id: tenant}
		c.gates[tenant] = g
		c.rr = append(c.rr, g)
	}
	w := &waiter{g: g, ready: make(chan struct{}), enq: now}
	g.queue = append(g.queue, w)
	c.queued++
	c.queuedG.Set(float64(c.queued))
	c.mu.Unlock()
	c.queuedTotal.Inc()

	select {
	case <-w.ready:
		// w.err was written before ready was closed, and nothing writes it
		// after: the closed channel orders the read without the lock.
		if w.err != nil {
			// Pushed out of the full queue by a shorter-queued tenant; the
			// eviction already recorded the shed.
			return nil, w.err
		}
		c.queueWait.Observe(c.now().Sub(w.enq).Seconds())
		c.admittedQueued.Inc()
		return c.releaseFunc(), nil
	case <-ctx.Done():
		return nil, c.abandon(w)
	}
}

// abandon removes a waiter whose context ended. If a grant raced the
// abandonment, the already-assigned slot is returned and re-granted to the
// next waiter; if a push-out eviction raced it, the eviction already settled
// the waiter's fate.
func (c *Controller) abandon(w *waiter) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	switch {
	case w.err != nil:
		return w.err
	case w.granted:
		c.inflight--
		c.grantLocked()
	default:
		c.dequeueLocked(w.g, slices.Index(w.g.queue, w))
	}
	return c.shedLocked(w.g.id, ReasonCanceled, c.now())
}

// releaseFunc is the closure handlers defer: it frees the slot once.
func (c *Controller) releaseFunc() func() {
	var once sync.Once
	return func() {
		once.Do(func() {
			c.mu.Lock()
			c.inflight--
			c.grantLocked()
			c.mu.Unlock()
		})
	}
}

// RetryHint returns a backoff hint for overload responses produced outside
// the controller (drains, standby 503s): the head-of-line sojourn, floored
// at one second so generic hints never read as "now".
func (c *Controller) RetryHint() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return max(c.hintLocked(c.now()), time.Second)
}

// Stats is a point-in-time snapshot for tests and debugging.
type Stats struct {
	Inflight int
	Queued   int
	Tenants  int // tenants with a queued waiter
}

// Snapshot returns current occupancy.
func (c *Controller) Snapshot() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{Inflight: c.inflight, Queued: c.queued, Tenants: len(c.gates)}
}

// hintLocked is the head-of-line sojourn — how long the oldest queued
// request has waited — clamped to [minRetryAfter, maxRetryAfter].
func (c *Controller) hintLocked(now time.Time) time.Duration {
	d := minRetryAfter
	for _, g := range c.rr {
		d = max(d, now.Sub(g.queue[0].enq))
	}
	return min(d, maxRetryAfter)
}

// shedLocked records a rejection and builds its error.
func (c *Controller) shedLocked(tenant, reason string, now time.Time) *ShedError {
	c.shed[reason].Inc()
	return &ShedError{Tenant: tenant, Reason: reason, RetryAfter: c.hintLocked(now)}
}

// grantLocked hands freed slots to queued waiters, round-robin across
// tenants, until slots run out or the queues drain.
func (c *Controller) grantLocked() {
	for c.inflight < c.cfg.MaxInflight && len(c.rr) > 0 {
		if c.rrIdx >= len(c.rr) {
			c.rrIdx = 0
		}
		g := c.rr[c.rrIdx]
		w := c.dequeueLocked(g, 0)
		if len(g.queue) > 0 {
			c.rrIdx++ // else g left the ring and rrIdx already names its successor
		}
		c.inflight++
		w.granted = true
		close(w.ready)
	}
	c.inflightG.Set(float64(c.inflight))
}

// pushOutLocked makes room in a full queue for an arrival whose tenant's
// queue is g (nil when it has none) by evicting the newest waiter of the
// longest queue (longest-queue drop, the classic fair buffer-sharing policy).
// It returns false — shed the arrival instead — when g itself owns or ties
// the longest queue, so a tenant can never push out its own kind to jump
// ahead, and tenants with short queues always find room. The victim's hint
// is read before it leaves, so it sees the backlog it was part of.
func (c *Controller) pushOutLocked(g *gate, now time.Time) bool {
	var victim *gate
	for _, cand := range c.rr {
		if victim == nil || len(cand.queue) > len(victim.queue) {
			victim = cand
		}
	}
	if victim == nil || (g != nil && len(victim.queue) <= len(g.queue)) {
		return false
	}
	err := c.shedLocked(victim.id, ReasonQueueFull, now)
	w := c.dequeueLocked(victim, len(victim.queue)-1)
	w.err = err
	close(w.ready)
	return true
}

// dequeueLocked unlinks g.queue[i] — granted, pushed out or abandoned — and
// drops g from the table and the round-robin ring when that empties its
// queue, keeping rrIdx on the gate that followed it.
func (c *Controller) dequeueLocked(g *gate, i int) *waiter {
	w := g.queue[i]
	g.queue = slices.Delete(g.queue, i, i+1)
	c.queued--
	c.queuedG.Set(float64(c.queued))
	if len(g.queue) == 0 {
		delete(c.gates, g.id)
		r := slices.Index(c.rr, g)
		c.rr = slices.Delete(c.rr, r, r+1)
		if c.rrIdx > r {
			c.rrIdx--
		}
	}
	return w
}
