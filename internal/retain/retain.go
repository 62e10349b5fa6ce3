// Package retain bounds the box-wide disk footprint of the per-tenant
// write-ahead journals. Segments are immutable once sealed and only a
// snapshot makes older ones re-derivable, so without intervention a
// long-lived multi-tenant box grows disk without bound. The compactor here
// closes that loop: it accounts journal bytes per tenant and box-wide
// against a configured budget, schedules snapshot-then-prune on the tenants
// holding the most reclaimable bytes (idle tenants first, rotating the
// start position under pressure so no tenant is compacted repeatedly while
// its neighbors grow), and — when a full round cannot bring the box back
// under budget — marks the tenants that have nothing left to reclaim so the
// server can shed their mutations with 507 + Retry-After instead of filling
// the volume.
//
// Pruning itself is lease-aware (see wal.Lease): a replication stream pins
// the oldest cursor its follower still needs, and the journal's Prune never
// crosses that floor, so compaction under a live follower does not force a
// re-seed.
package retain

import (
	"errors"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/auditgames/sag/internal/obs"
	"github.com/auditgames/sag/internal/wal"
)

// Retention metric names.
const (
	// MetricBytes gauges each tenant's journal size on disk.
	MetricBytes = "sag_retain_bytes"
	// MetricPrunedSegments counts journal segments deleted, per tenant.
	MetricPrunedSegments = "sag_retain_pruned_segments_total"
	// MetricLeaseFloor gauges, per tenant, the lowest segment a replication
	// lease pins (-1 when no lease is held).
	MetricLeaseFloor = "sag_retain_lease_floor"
	// MetricPressure gauges box-wide journal bytes over the disk budget: at
	// or below 1 the box fits; above 1 it is overcommitted and mutations of
	// non-reclaiming tenants are shed.
	MetricPressure = "sag_retain_pressure"
)

// DefaultInterval is the compaction scan cadence when Config.Interval is 0.
const DefaultInterval = 15 * time.Second

// kickDebounce is the minimum gap between kick-triggered scans, so a hot
// append path cannot turn every write into a full tenant scan.
const kickDebounce = 100 * time.Millisecond

// ErrBusy is returned by a Tenant's Compact when the tenant's lifecycle
// write lock is held (a cycle rollover or another snapshot in flight); the
// compactor skips it this round rather than queueing behind the rollover.
var ErrBusy = errors.New("retain: tenant lifecycle busy; skipped")

// Tenant is the compactor's view of one resident tenant.
type Tenant interface {
	// RetainID is the tenant ID (metric label, log lines).
	RetainID() string
	// RetainStats returns the tenant journal's disk accounting; ok is
	// false when the tenant has no open journal (follower before promote,
	// eviction race) and the tenant is skipped.
	RetainStats() (st wal.RetainStats, ok bool)
	// Prune deletes already-prunable segments (snapshot-superseded, below
	// the lease floor) without writing a new snapshot.
	Prune() (segs int, bytes int64, err error)
	// Compact snapshots the tenant and prunes superseded segments. It must
	// not block behind the tenant's lifecycle write lock — return ErrBusy.
	Compact() error
	// LastAppend is when the tenant last journaled a record; idle tenants
	// are compacted first (their snapshot is cheapest per byte freed — no
	// in-flight decisions to drain and no tail regrowth).
	LastAppend() time.Time
}

// Config parameterizes a Compactor.
type Config struct {
	// BudgetBytes is the box-wide journal byte budget. Required (> 0).
	BudgetBytes int64
	// Interval is the background scan cadence; 0 selects DefaultInterval.
	Interval time.Duration
	// List enumerates the resident tenants. Required.
	List func() []Tenant
	// Metrics receives the sag_retain_* instruments; nil disables.
	Metrics *obs.Registry
	// Logf receives compaction traces; nil discards them.
	Logf func(format string, args ...any)
	// Now is the clock (tests inject a fake); nil selects time.Now.
	Now func() time.Time
}

// Compactor is the background retention scheduler. Start launches the scan
// loop; Kick requests an immediate scan (coalesced and debounced); Stop
// terminates the loop. Blocked answers the server's disk-pressure gate.
type Compactor struct {
	cfg  Config
	logf func(string, ...any)
	now  func() time.Time

	kickCh chan struct{}
	done   chan struct{}
	wg     sync.WaitGroup

	mu       sync.Mutex
	started  bool
	stopped  bool
	pressure bool
	blocked  map[string]bool
	rr       int // rotation offset across pressure rounds

	lastScan atomic.Int64 // unix nanos of the last RunOnce start

	bytesG    func(tenant string) *obs.Gauge
	leaseG    func(tenant string) *obs.Gauge
	prunedC   func(tenant string) *obs.Counter
	pressureG *obs.Gauge
}

// New builds a Compactor. Config.BudgetBytes and Config.List are required.
func New(cfg Config) (*Compactor, error) {
	if cfg.BudgetBytes <= 0 {
		return nil, errors.New("retain: BudgetBytes must be positive")
	}
	if cfg.List == nil {
		return nil, errors.New("retain: List is required")
	}
	if cfg.Interval <= 0 {
		cfg.Interval = DefaultInterval
	}
	c := &Compactor{
		cfg:     cfg,
		logf:    cfg.Logf,
		now:     cfg.Now,
		kickCh:  make(chan struct{}, 1),
		done:    make(chan struct{}),
		blocked: make(map[string]bool),
	}
	if c.logf == nil {
		c.logf = func(string, ...any) {}
	}
	if c.now == nil {
		c.now = time.Now
	}
	reg := cfg.Metrics
	c.bytesG = func(tenant string) *obs.Gauge {
		return reg.Gauge(MetricBytes, "Journal bytes on disk.", obs.L("tenant", tenant))
	}
	c.leaseG = func(tenant string) *obs.Gauge {
		return reg.Gauge(MetricLeaseFloor, "Lowest journal segment a replication lease pins (-1: none).", obs.L("tenant", tenant))
	}
	c.prunedC = func(tenant string) *obs.Counter {
		return reg.Counter(MetricPrunedSegments, "Journal segments pruned.", obs.L("tenant", tenant))
	}
	c.pressureG = reg.Gauge(MetricPressure, "Box-wide journal bytes over the disk budget (>1: overcommitted).")
	return c, nil
}

// Start launches the background scan loop. Idempotent.
func (c *Compactor) Start() {
	c.mu.Lock()
	if c.started || c.stopped {
		c.mu.Unlock()
		return
	}
	c.started = true
	c.mu.Unlock()
	c.wg.Add(1)
	go c.loop()
}

// Stop terminates the scan loop and waits for it. Idempotent.
func (c *Compactor) Stop() {
	c.mu.Lock()
	if c.stopped {
		c.mu.Unlock()
		return
	}
	c.stopped = true
	started := c.started
	c.mu.Unlock()
	close(c.done)
	if started {
		c.wg.Wait()
	}
}

// Kick requests a prompt scan — the append path calls it so a write burst
// is met with compaction now, not at the next tick. Coalesced, and debounced
// here on the caller's side: inside the window a kick costs one clock read,
// not a wake of the loop goroutine for it to discard.
func (c *Compactor) Kick() {
	if c.debounced() {
		return
	}
	select {
	case c.kickCh <- struct{}{}:
	default:
	}
}

// debounced reports whether the last scan started under kickDebounce ago.
func (c *Compactor) debounced() bool {
	return c.now().UnixNano()-c.lastScan.Load() < int64(kickDebounce)
}

// Blocked reports whether tenant's mutations should be shed for disk
// pressure: the box is over budget and this tenant has nothing left to
// reclaim, so its writes are pure growth. retryAfter is the suggested
// client backoff (the scan cadence — the soonest the verdict can change).
func (c *Compactor) Blocked(tenant string) (retryAfter time.Duration, blocked bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.pressure || !c.blocked[tenant] {
		return 0, false
	}
	return c.cfg.Interval, true
}

// Forget clears tenant's retention state on eviction: the gauges are zeroed
// (the journal directory may well persist, but the tenant no longer counts
// against the resident budget until it is restored) and any block is lifted.
func (c *Compactor) Forget(tenant string) {
	c.mu.Lock()
	delete(c.blocked, tenant)
	c.mu.Unlock()
	c.bytesG(tenant).Set(0)
	c.leaseG(tenant).Set(-1)
}

// loop is the background scheduler: scan on the tick, on a kick (debounced),
// and once at startup so boot-time debt is collected promptly.
func (c *Compactor) loop() {
	defer c.wg.Done()
	tick := time.NewTicker(c.cfg.Interval)
	defer tick.Stop()
	c.RunOnce()
	for {
		select {
		case <-c.done:
			return
		case <-tick.C:
			c.RunOnce()
		case <-c.kickCh:
			// A tick may have scanned since the kick was queued.
			if !c.debounced() {
				c.RunOnce()
			}
		}
	}
}

// candidate is one tenant's scan snapshot.
type candidate struct {
	t    Tenant
	id   string
	st   wal.RetainStats
	idle bool
}

// RunOnce performs one full scan-and-compact round synchronously: refresh
// accounting, free what is already prunable, and — while over budget —
// snapshot-then-prune tenants in reclaimable-bytes order until the box fits
// or nothing more can be freed. Exposed for drills and tests; the
// background loop calls it on every tick and kick.
func (c *Compactor) RunOnce() {
	c.lastScan.Store(c.now().UnixNano())
	c.mu.Lock()
	rr := c.rr
	c.mu.Unlock()

	cands, total := c.scan()
	// Opportunistic prune first: segments whose lease was released after
	// the snapshot that superseded them are free bytes, no snapshot needed.
	for i := range cands {
		if cands[i].st.PrunableBytes > 0 {
			segs, bytes, err := cands[i].t.Prune()
			if err != nil {
				c.logf("retain: tenant %s: prune: %v", cands[i].id, err)
				continue
			}
			if segs > 0 {
				c.prunedC(cands[i].id).Add(uint64(segs))
				total -= bytes
				cands[i].st.TotalBytes -= bytes
				cands[i].st.PrunableBytes = 0
			}
		}
	}

	budget := c.cfg.BudgetBytes
	if total > budget {
		// Over budget: compact in reclaimable order, idle tenants first.
		// The rotation offset keeps repeated rounds from hammering the same
		// tenant while its neighbors hold just slightly fewer bytes.
		order := compactionOrder(cands, rr)
		for _, i := range order {
			if total <= budget {
				break
			}
			cand := &cands[i]
			if cand.st.ReclaimableBytes <= 0 {
				continue
			}
			if err := cand.t.Compact(); err != nil {
				if errors.Is(err, ErrBusy) {
					c.logf("retain: tenant %s: compaction skipped (lifecycle busy)", cand.id)
				} else {
					c.logf("retain: tenant %s: compaction: %v", cand.id, err)
				}
				continue
			}
			st, ok := cand.t.RetainStats()
			if !ok {
				continue
			}
			freed := cand.st.TotalBytes - st.TotalBytes
			total -= freed
			if d := cand.st.Segments - st.Segments; d > 0 {
				c.prunedC(cand.id).Add(uint64(d))
			}
			c.logf("retain: tenant %s: compacted, freed %d bytes (box %d/%d)",
				cand.id, freed, total, budget)
			cand.st = st
		}
		c.mu.Lock()
		c.rr++
		c.mu.Unlock()
	}

	// Publish the verdict: pressure plus the per-tenant block set. A tenant
	// is blocked only when the box still does not fit and compacting it
	// could not help — its journal is all live tail (or pinned by a lease
	// whose follower is still reading it).
	pressure := total > budget
	blocked := make(map[string]bool)
	if pressure {
		for i := range cands {
			if cands[i].st.ReclaimableBytes <= 0 {
				blocked[cands[i].id] = true
			}
		}
	}
	c.mu.Lock()
	c.pressure = pressure
	c.blocked = blocked
	c.mu.Unlock()
	c.pressureG.Set(float64(total) / float64(budget))
	for i := range cands {
		c.bytesG(cands[i].id).Set(float64(cands[i].st.TotalBytes))
		c.leaseG(cands[i].id).Set(float64(cands[i].st.LeaseFloorSeg))
	}
}

// scan snapshots every tenant's retention stats and the box-wide total.
func (c *Compactor) scan() ([]candidate, int64) {
	var (
		cands []candidate
		total int64
	)
	idleCutoff := c.now().Add(-c.cfg.Interval)
	for _, t := range c.cfg.List() {
		st, ok := t.RetainStats()
		if !ok {
			continue
		}
		cands = append(cands, candidate{
			t:    t,
			id:   t.RetainID(),
			st:   st,
			idle: t.LastAppend().Before(idleCutoff),
		})
		total += st.TotalBytes
	}
	return cands, total
}

// compactionOrder returns candidate indices in compaction priority: idle
// tenants before busy ones, more reclaimable bytes first within each class,
// the whole order rotated by rr so successive pressure rounds start at a
// different tenant.
func compactionOrder(cands []candidate, rr int) []int {
	order := make([]int, len(cands))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		ca, cb := cands[order[a]], cands[order[b]]
		if ca.idle != cb.idle {
			return ca.idle
		}
		return ca.st.ReclaimableBytes > cb.st.ReclaimableBytes
	})
	if n := len(order); n > 1 {
		rot := rr % n
		order = append(order[rot:], order[:rot]...)
	}
	return order
}
