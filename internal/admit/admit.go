// Package admit is the serving stack's admission-control layer. It decides,
// before any engine work happens, whether a request may run now, must wait
// in a bounded queue, or should be shed with a 503 and a computed
// Retry-After hint.
//
// The design mirrors the paper's core tension — a defender rationing a fixed
// audit budget across adversarial requests — at the systems layer: the box
// has a fixed solver/CPU budget, and under overload it must ration that
// budget across tenants instead of degrading everyone equally.
//
// Two mechanisms compose:
//
//   - Per-tenant token buckets bound each tenant's sustained admission rate
//     (Rate req/s, Burst depth). A tenant that exceeds its rate is shed
//     immediately with reason "rate" and a Retry-After equal to the time
//     until its bucket refills one token — so the hint varies with how far
//     over budget the tenant is, never a constant.
//
//   - A box-wide inflight cap (MaxInflight). When all slots are busy,
//     requests wait in a bounded FIFO queue per tenant; freed slots are
//     granted round-robin across tenants with non-empty queues, so a greedy
//     tenant's deep queue cannot starve a polite tenant's shallow one. The
//     bound (QueueDepth) is shared by longest-queue drop: an arrival that
//     finds the queue full pushes out the newest waiter of the longest
//     queue, so the backlog a greedy tenant built absorbs the drops and a
//     tenant asking for little always finds room.
//
// Invariant: a free slot and a non-empty queue never coexist — a request
// queues only when every slot is busy, and every freed slot goes straight to
// a waiter. A queued request waits until it is granted, pushed out, or its
// context ends: the request's own deadline is the only clock on the wait.
//
// The controller also tracks the observed completion rate over a short
// sliding window. It sheds nothing by it; it is where the Retry-After of a
// queue shed and RetryHint come from — the projected wait of a new arrival
// at the back of the queue, so the hint tracks the backlog.
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

// Metric names exported by the controller.
const (
	// MetricAdmittedTotal counts admitted requests, labeled by tenant and
	// by how they got in: reason="direct" (a slot was free) or "queued".
	MetricAdmittedTotal = "sag_admit_admitted_total"
	// MetricShedTotal counts rejected requests, labeled by tenant and
	// reason ("rate", "queue_full", "canceled").
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
	// ReasonRate: the tenant's token bucket was empty.
	ReasonRate = "rate"
	// ReasonQueueFull: the box-wide admission queue was at QueueDepth.
	ReasonQueueFull = "queue_full"
	// ReasonCanceled: the caller's context ended while queued.
	ReasonCanceled = "canceled"
)

// Admitted reasons on MetricAdmittedTotal.
const (
	reasonDirect = "direct"
	reasonQueued = "queued"
)

// drainWindow is the width of each half of the sliding window the
// completion-rate estimator maintains. Two halves give a smoothed rate over
// the last ~0.5–1s without storing per-completion timestamps.
const drainWindow = 500 * time.Millisecond

// maxRetryAfter caps every computed hint: past this the honest answer is
// "much later", and a bounded hint keeps well-behaved clients from parking
// for minutes on one bad projection.
const maxRetryAfter = 30 * time.Second

// minObsWindow floors the observation span the estimator divides by while
// its first window is still filling, so a lone early completion cannot read
// as an astronomically high (or, divided by the full window, low) rate.
const minObsWindow = 10 * time.Millisecond

// Config parameterizes a Controller. The zero value disables admission
// control entirely (Enabled returns false); servers treat that as "admit
// everything", preserving pre-admission behavior.
type Config struct {
	// Rate is each tenant's sustained admission rate in requests/second.
	// 0 disables rate limiting.
	Rate float64
	// Burst is the token-bucket depth (maximum momentary excursion above
	// Rate). 0 defaults to max(1, Rate).
	Burst float64
	// MaxInflight bounds concurrently admitted requests box-wide.
	// 0 disables the inflight cap and the queue.
	MaxInflight int
	// QueueDepth bounds the box-wide admission queue. 0 means no queue:
	// a request that cannot run immediately is shed.
	QueueDepth int
	// MaxTenants caps the tenant-gate table. At the cap, creating a gate
	// for a new tenant evicts the longest-idle gate with no inflight or
	// queued requests. 0 means unlimited.
	MaxTenants int
	// Now overrides the clock (tests). Nil means time.Now.
	Now func() time.Time
	// Metrics receives the sag_admit_* series. Nil disables metrics.
	Metrics *obs.Registry
}

// Enabled reports whether this configuration imposes any admission policy.
func (c Config) Enabled() bool {
	return c.Rate > 0 || c.MaxInflight > 0
}

// ShedError is returned by Admit when a request is rejected. RetryAfter is
// the computed backoff hint (already capped; always > 0).
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

// gate is the per-tenant admission state. All fields are guarded by
// Controller.mu; the metric instruments are pre-resolved and internally
// atomic.
type gate struct {
	id       string
	tokens   float64
	refilled time.Time // last token-bucket refill
	inflight int
	queue    []*waiter
	idleAt   time.Time // last transition to fully idle (eviction order)

	admittedDirect *obs.Counter
	admittedQueued *obs.Counter
	queuedTotal    *obs.Counter
	shed           map[string]*obs.Counter
}

// Controller is the admission-control state machine. Create with New.
type Controller struct {
	cfg Config
	now func() time.Time

	queueWait *obs.Histogram
	inflightG *obs.Gauge
	queuedG   *obs.Gauge

	mu       sync.Mutex
	gates    map[string]*gate
	rr       []*gate // exactly the gates with non-empty queues, in round-robin order
	rrIdx    int
	inflight int
	queued   int

	// Completion-rate estimator: two-bucket sliding window. winFull marks
	// that a full window preceded the current one, making prevCount a real
	// measurement rather than a cold start.
	winStart    time.Time
	winCount    int
	prevCount   int
	winFull     bool
	everDrained bool
}

// New validates cfg and returns a Controller. It errors if cfg.Enabled() is
// false or any knob is negative.
func New(cfg Config) (*Controller, error) {
	if !cfg.Enabled() {
		return nil, errors.New("admit: config enables no admission policy (set Rate or MaxInflight)")
	}
	if cfg.Rate < 0 || cfg.Burst < 0 || cfg.MaxInflight < 0 || cfg.QueueDepth < 0 || cfg.MaxTenants < 0 {
		return nil, errors.New("admit: negative knob in config")
	}
	if cfg.Rate > 0 && cfg.Burst == 0 {
		cfg.Burst = math.Max(1, cfg.Rate)
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
		c.queueWait = reg.Histogram(MetricQueueWaitSeconds,
			"Time spent in the admission queue before a slot was granted.", obs.DefWaitBuckets)
		c.inflightG = reg.Gauge(MetricInflight, "Requests currently admitted and running.")
		c.queuedG = reg.Gauge(MetricQueueDepth, "Requests currently waiting in the admission queue.")
	}
	return c, nil
}

// Admit asks to run one request for tenant. On admission it returns a
// release function that MUST be called exactly once when the request
// finishes (it frees the slot and feeds the drain-rate estimator; it is
// idempotent as a safety net). On rejection it returns a *ShedError with
// the reason and a computed Retry-After.
//
// Admit blocks only when the request is queued, and then until a slot is
// granted, the waiter is pushed out, or ctx is done.
func (c *Controller) Admit(ctx context.Context, tenant string) (release func(), err error) {
	c.mu.Lock()
	now := c.now()
	g := c.gateLocked(tenant, now)

	// Stage 1: per-tenant token bucket.
	if c.cfg.Rate > 0 {
		g.refill(now, c.cfg.Rate, c.cfg.Burst)
		if g.tokens < 1 {
			// Time until one full token accrues.
			ra := time.Duration((1 - g.tokens) / c.cfg.Rate * float64(time.Second))
			err := c.shedLocked(g, ReasonRate, ra)
			c.mu.Unlock()
			return nil, err
		}
		g.tokens--
	}

	// Stage 2: direct admission — a slot is free, so nobody is queued ahead
	// (a freed slot always goes to a waiter first).
	if c.slotFreeLocked() {
		c.inflight++
		g.inflight++
		c.inflightG.Set(float64(c.inflight))
		g.admittedDirect.Inc()
		c.mu.Unlock()
		return c.releaseFunc(g), nil
	}

	// Stage 3: queue, or shed. A full queue is shared fairly by push-out:
	// the arrival evicts the newest waiter of the longest queue, so a
	// greedy tenant's backlog absorbs the drops and can never wall off the
	// queue from tenants asking for little. Only when the arriving tenant
	// itself owns (or ties) the longest queue is the arrival the one shed.
	// (With QueueDepth 0 nobody is ever queued, so there is nobody to evict.)
	if c.queued >= c.cfg.QueueDepth && !c.pushOutLocked(g, now) {
		err := c.shedLocked(g, ReasonQueueFull, c.projectedWaitLocked(now, c.queued+1))
		c.mu.Unlock()
		return nil, err
	}
	w := &waiter{g: g, ready: make(chan struct{}), enq: now}
	if len(g.queue) == 0 {
		c.rr = append(c.rr, g)
	}
	g.queue = append(g.queue, w)
	c.queued++
	c.queuedG.Set(float64(c.queued))
	g.queuedTotal.Inc()
	c.mu.Unlock()

	select {
	case <-w.ready:
		c.mu.Lock()
		if w.err != nil {
			// Pushed out of the full queue by a shorter-queued tenant;
			// the eviction already recorded the shed.
			c.mu.Unlock()
			return nil, w.err
		}
		wait := c.now().Sub(w.enq)
		c.queueWait.Observe(wait.Seconds())
		g.admittedQueued.Inc()
		c.mu.Unlock()
		return c.releaseFunc(g), nil
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
	now := c.now()
	switch {
	case w.err != nil:
		return w.err
	case w.granted:
		c.inflight--
		w.g.inflight--
		c.noteIdleLocked(w.g, now)
		c.grantLocked()
	default:
		c.dequeueLocked(w.g, slices.Index(w.g.queue, w))
		c.noteIdleLocked(w.g, now)
	}
	return c.shedLocked(w.g, ReasonCanceled, c.projectedWaitLocked(now, c.queued+1))
}

// Release-side plumbing. The returned closure is what handlers defer.
func (c *Controller) releaseFunc(g *gate) func() {
	var once sync.Once
	return func() {
		once.Do(func() {
			c.mu.Lock()
			now := c.now()
			c.inflight--
			g.inflight--
			c.rotateLocked(now)
			c.winCount++
			c.everDrained = true
			c.noteIdleLocked(g, now)
			c.grantLocked()
			c.inflightG.Set(float64(c.inflight))
			c.mu.Unlock()
		})
	}
}

// RetryHint returns a backoff hint for overload responses produced outside
// the controller (drains, standby 503s): the projected wait for a new
// arrival, floored at one second so generic hints never read as "now".
func (c *Controller) RetryHint() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	d := c.projectedWaitLocked(c.now(), c.queued+1)
	if d < time.Second {
		d = time.Second
	}
	return d
}

// Forget drops tenant's gate if it is fully idle. Servers call it when a
// tenant is evicted so the gate table tracks the resident tenant set.
func (c *Controller) Forget(tenant string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if g, ok := c.gates[tenant]; ok && g.inflight == 0 && len(g.queue) == 0 {
		delete(c.gates, tenant)
	}
}

// Stats is a point-in-time snapshot for tests and debugging.
type Stats struct {
	Inflight  int
	Queued    int
	Tenants   int
	DrainRate float64 // completions/second over the sliding window
}

// Snapshot returns current occupancy.
func (c *Controller) Snapshot() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Inflight:  c.inflight,
		Queued:    c.queued,
		Tenants:   len(c.gates),
		DrainRate: c.drainRateLocked(c.now()),
	}
}

func (c *Controller) slotFreeLocked() bool {
	return c.cfg.MaxInflight <= 0 || c.inflight < c.cfg.MaxInflight
}

// noteIdleLocked records the moment a gate went fully idle, for eviction
// ordering in gateLocked.
func (c *Controller) noteIdleLocked(g *gate, now time.Time) {
	if g.inflight == 0 && len(g.queue) == 0 {
		g.idleAt = now
	}
}

// gateLocked returns tenant's gate, creating it on first use. At the
// MaxTenants cap the longest-idle gate is evicted; if every gate is busy
// the table grows past the cap rather than rejecting the tenant (the
// resident-tenant cap in shard is the real limit — this one only bounds
// bookkeeping).
func (c *Controller) gateLocked(tenant string, now time.Time) *gate {
	if g, ok := c.gates[tenant]; ok {
		return g
	}
	if c.cfg.MaxTenants > 0 && len(c.gates) >= c.cfg.MaxTenants {
		var victim *gate
		for _, g := range c.gates {
			if g.inflight != 0 || len(g.queue) != 0 {
				continue
			}
			if victim == nil || g.idleAt.Before(victim.idleAt) {
				victim = g
			}
		}
		if victim != nil {
			delete(c.gates, victim.id)
		}
	}
	g := &gate{id: tenant, tokens: c.cfg.Burst, refilled: now, idleAt: now}
	if reg := c.cfg.Metrics; reg != nil {
		lt := obs.L("tenant", tenant)
		g.admittedDirect = reg.Counter(MetricAdmittedTotal,
			"Requests admitted, by tenant and admission path.", lt, obs.L("reason", reasonDirect))
		g.admittedQueued = reg.Counter(MetricAdmittedTotal, "", lt, obs.L("reason", reasonQueued))
		g.queuedTotal = reg.Counter(MetricQueuedTotal,
			"Requests that entered the admission queue, by tenant.", lt)
		g.shed = map[string]*obs.Counter{
			ReasonRate:      reg.Counter(MetricShedTotal, "Requests shed, by tenant and reason.", lt, obs.L("reason", ReasonRate)),
			ReasonQueueFull: reg.Counter(MetricShedTotal, "", lt, obs.L("reason", ReasonQueueFull)),
			ReasonCanceled:  reg.Counter(MetricShedTotal, "", lt, obs.L("reason", ReasonCanceled)),
		}
	}
	c.gates[tenant] = g
	return g
}

// refill accrues tokens since the last refill, capped at burst.
func (g *gate) refill(now time.Time, rate, burst float64) {
	if el := now.Sub(g.refilled); el > 0 {
		g.tokens = math.Min(burst, g.tokens+el.Seconds()*rate)
	}
	g.refilled = now
}

// shedLocked records a rejection and builds its error. RetryAfter is
// clamped to (0, maxRetryAfter].
func (c *Controller) shedLocked(g *gate, reason string, ra time.Duration) *ShedError {
	if ra <= 0 {
		ra = 10 * time.Millisecond
	}
	if ra > maxRetryAfter {
		ra = maxRetryAfter
	}
	if g.shed != nil {
		g.shed[reason].Inc()
	}
	return &ShedError{Tenant: g.id, Reason: reason, RetryAfter: ra}
}

// grantLocked hands freed slots to queued waiters, round-robin across
// tenants, until slots run out or the queues drain.
func (c *Controller) grantLocked() {
	for c.slotFreeLocked() && len(c.rr) > 0 {
		if c.rrIdx >= len(c.rr) {
			c.rrIdx = 0
		}
		g := c.rr[c.rrIdx]
		w := c.dequeueLocked(g, 0)
		if len(g.queue) > 0 {
			c.rrIdx++ // else g left the ring and rrIdx already names its successor
		}
		c.inflight++
		g.inflight++
		w.granted = true
		close(w.ready)
	}
	c.inflightG.Set(float64(c.inflight))
}

// pushOutLocked makes room in a full queue for an arrival from gate g by
// evicting the newest waiter of the longest queue (longest-queue drop, the
// classic fair buffer-sharing policy). It returns false — shed the arrival
// instead — when g itself owns or ties the longest queue, so a tenant can
// never push out its own kind to jump ahead, and tenants with short queues
// always find room.
func (c *Controller) pushOutLocked(g *gate, now time.Time) bool {
	var victim *gate
	for _, cand := range c.rr {
		if victim == nil || len(cand.queue) > len(victim.queue) {
			victim = cand
		}
	}
	if victim == nil || len(victim.queue) <= len(g.queue) {
		return false
	}
	w := c.dequeueLocked(victim, len(victim.queue)-1)
	c.noteIdleLocked(victim, now)
	w.err = c.shedLocked(victim, ReasonQueueFull, c.projectedWaitLocked(now, c.queued+1))
	close(w.ready)
	return true
}

// dequeueLocked unlinks g.queue[i] — granted, pushed out or abandoned — and
// drops g from the round-robin ring when that empties its queue, keeping
// rrIdx on the gate that followed it.
func (c *Controller) dequeueLocked(g *gate, i int) *waiter {
	w := g.queue[i]
	g.queue = slices.Delete(g.queue, i, i+1)
	c.queued--
	c.queuedG.Set(float64(c.queued))
	if len(g.queue) == 0 {
		r := slices.Index(c.rr, g)
		c.rr = slices.Delete(c.rr, r, r+1)
		if c.rrIdx > r {
			c.rrIdx--
		}
	}
	return w
}

// rotateLocked advances the sliding window so winCount covers at most
// drainWindow of history and prevCount the drainWindow before it.
func (c *Controller) rotateLocked(now time.Time) {
	if c.winStart.IsZero() {
		c.winStart = now
		return
	}
	el := now.Sub(c.winStart)
	switch {
	case el < drainWindow:
	case el < 2*drainWindow:
		c.prevCount = c.winCount
		c.winCount = 0
		c.winStart = c.winStart.Add(drainWindow)
		c.winFull = true
	default:
		// More than a full window of silence: the estimator restarts cold.
		c.prevCount = 0
		c.winCount = 0
		c.winStart = now
		c.winFull = false
	}
}

// drainRateLocked estimates completions/second: the current window's count
// plus the previous window's, weighted by how much of it is still inside
// the last drainWindow of wall time. While the first window since start (or
// since an idle reset) is still filling there is no previous window to lean
// on, so the count is divided by the time actually observed — dividing by
// the full window there would underestimate the rate by up to 50× and shed
// traffic a freshly loaded box is in fact absorbing.
func (c *Controller) drainRateLocked(now time.Time) float64 {
	c.rotateLocked(now)
	if c.winStart.IsZero() {
		return 0
	}
	el := now.Sub(c.winStart)
	if !c.winFull {
		obs := el
		if obs < minObsWindow {
			obs = minObsWindow
		}
		return float64(c.winCount) / obs.Seconds()
	}
	frac := el.Seconds() / drainWindow.Seconds()
	if frac > 1 {
		frac = 1
	} else if frac < 0 {
		frac = 0
	}
	n := float64(c.prevCount)*(1-frac) + float64(c.winCount)
	return n / drainWindow.Seconds()
}

// projectedWaitLocked estimates how long the request at queue position pos
// (1-based) would wait, from the observed drain rate. Before any completion
// has ever been observed the projection is zero — a cold controller has no
// evidence of slowness and must not shed its very first burst. A rate of
// zero after completions have been seen means the pipeline is stalled, which
// projects the maximum.
func (c *Controller) projectedWaitLocked(now time.Time, pos int) time.Duration {
	rate := c.drainRateLocked(now)
	if rate <= 0 {
		if !c.everDrained {
			return 0
		}
		return maxRetryAfter
	}
	d := time.Duration(float64(pos) / rate * float64(time.Second))
	if d > maxRetryAfter {
		d = maxRetryAfter
	}
	return d
}
