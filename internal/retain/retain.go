// Package retain is the one place a durable server snapshots a tenant on its
// own initiative. A periodic scan reads every resident tenant's journal
// accounting and snapshots each tenant whose tail since its newest snapshot
// has reached the cadence, which bounds replay after a crash to the cadence
// plus one interval of appends.
//
// With a disk budget the same scan also bounds the box-wide journal
// footprint. Segments are immutable once sealed and only a snapshot makes
// older ones re-derivable, so the scan prunes what is already superseded,
// snapshots-then-prunes the tenants holding the most reclaimable bytes while
// the box is over budget, and — when that cannot bring the box back under —
// marks the tenants that have nothing left to reclaim so the server can shed
// their mutations with 507 + Retry-After instead of filling the volume.
//
// Pruning itself is lease-aware (see wal.Lease): a replication stream pins
// the oldest cursor its follower still needs, and the journal's Prune never
// crosses that floor, so compaction under a live follower does not force a
// re-seed.
package retain

import (
	"errors"
	"log/slog"
	"sort"
	"sync"
	"time"

	"github.com/auditgames/sag/internal/obs"
	"github.com/auditgames/sag/internal/wal"
)

// Retention metric names. They are registered only with a disk budget.
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

// DefaultInterval is the scan cadence when Config.Interval is 0.
const DefaultInterval = time.Second

// Tenant is the compactor's view of one resident tenant.
type Tenant interface {
	// RetainID is the tenant ID (metric label, log lines).
	RetainID() string
	// RetainStats returns the tenant journal's disk accounting.
	RetainStats() wal.RetainStats
	// Prune deletes already-prunable segments (snapshot-superseded, below
	// the lease floor) without writing a new snapshot.
	Prune() (segs int, bytes int64, err error)
	// Compact snapshots the tenant and prunes superseded segments.
	Compact() error
}

// Config parameterizes a Compactor.
type Config struct {
	// BudgetBytes is the box-wide journal byte budget; 0 scans for the
	// cadence only.
	BudgetBytes int64
	// SnapshotEvery snapshots a tenant once this many records follow its
	// newest snapshot; 0 disables the cadence.
	SnapshotEvery int
	// Interval is the background scan cadence; 0 selects DefaultInterval.
	Interval time.Duration
	// List enumerates the resident tenants. Required.
	List func() []Tenant
	// Metrics receives the sag_retain_* instruments when BudgetBytes is
	// set; nil disables.
	Metrics *obs.Registry
}

// Compactor is the background retention scheduler. Start launches the scan
// loop; Stop terminates it. Blocked answers the server's disk-pressure gate.
type Compactor struct {
	cfg Config

	done chan struct{}
	wg   sync.WaitGroup

	mu       sync.Mutex
	started  bool
	stopped  bool
	pressure bool
	blocked  map[string]bool

	bytesG    func(tenant string) *obs.Gauge
	leaseG    func(tenant string) *obs.Gauge
	prunedC   func(tenant string) *obs.Counter
	pressureG *obs.Gauge
}

// New builds a Compactor. Config.List is required.
func New(cfg Config) (*Compactor, error) {
	if cfg.List == nil {
		return nil, errors.New("retain: List is required")
	}
	if cfg.Interval <= 0 {
		cfg.Interval = DefaultInterval
	}
	c := &Compactor{
		cfg:     cfg,
		done:    make(chan struct{}),
		blocked: make(map[string]bool),
	}
	reg := cfg.Metrics
	if cfg.BudgetBytes <= 0 {
		reg = nil // no budget, no series
	}
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

// Blocked reports whether tenant's mutations should be shed for disk
// pressure: the box is over budget and this tenant has nothing left to
// reclaim, so its writes are pure growth. retryAfter is the suggested
// client backoff (the scan cadence — the soonest the verdict can change).
// Without a budget it answers at once, taking no lock.
func (c *Compactor) Blocked(tenant string) (retryAfter time.Duration, blocked bool) {
	if c.cfg.BudgetBytes <= 0 {
		return 0, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.pressure || !c.blocked[tenant] {
		return 0, false
	}
	return c.cfg.Interval, true
}

// loop is the background scheduler: scan once at startup, so boot-time debt
// is collected promptly, then on every tick.
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
		}
	}
}

// candidate is one tenant's scan snapshot.
type candidate struct {
	t  Tenant
	id string
	st wal.RetainStats
}

// RunOnce performs one full scan synchronously: snapshot every tenant past
// the cadence, then, with a budget, free what is already prunable and —
// while over budget — snapshot-then-prune tenants, most reclaimable bytes
// first, until the box fits or nothing more can be freed. Exposed for drills
// and tests; the background loop calls it on every tick.
func (c *Compactor) RunOnce() {
	var (
		cands []candidate
		total int64
	)
	every := int64(c.cfg.SnapshotEvery)
	for _, t := range c.cfg.List() {
		st := t.RetainStats()
		cand := candidate{t: t, id: t.RetainID(), st: st}
		if every > 0 && st.TailRecords >= every {
			c.compact(&cand)
		}
		cands = append(cands, cand)
		total += cand.st.TotalBytes
	}
	budget := c.cfg.BudgetBytes
	if budget <= 0 {
		return
	}

	// Opportunistic prune first: segments whose lease was released after
	// the snapshot that superseded them are free bytes, no snapshot needed.
	for i := range cands {
		if cands[i].st.PrunableBytes > 0 {
			segs, bytes, err := cands[i].t.Prune()
			if err != nil {
				slog.Error("prune failed", "tenant", cands[i].id, "err", err)
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

	if total > budget {
		sort.SliceStable(cands, func(a, b int) bool {
			return cands[a].st.ReclaimableBytes > cands[b].st.ReclaimableBytes
		})
		for i := range cands {
			if total <= budget {
				break
			}
			cand := &cands[i]
			if cand.st.ReclaimableBytes <= 0 {
				continue
			}
			if freed, ok := c.compact(cand); ok {
				total -= freed
				slog.Info("compacted", "tenant", cand.id, "freed_bytes", freed,
					"box_bytes", total, "budget_bytes", budget)
			}
		}
	}

	// Publish the verdict: pressure plus the per-tenant block set. A tenant
	// is blocked only when the box still does not fit and compacting it
	// could not help — its journal is all live tail (or pinned by a lease
	// whose follower is still reading it).
	pressure := total > budget
	blocked := make(map[string]bool)
	c.mu.Lock()
	defer c.mu.Unlock()
	for i := range cands {
		id := cands[i].id
		if pressure && cands[i].st.ReclaimableBytes <= 0 {
			blocked[id] = true
		}
		c.bytesG(id).Set(float64(cands[i].st.TotalBytes))
		c.leaseG(id).Set(float64(cands[i].st.LeaseFloorSeg))
	}
	c.pressure, c.blocked = pressure, blocked
	c.pressureG.Set(float64(total) / float64(budget))
}

// compact snapshots-then-prunes cand, refreshes its stats and counts the
// segments that went. It reports the bytes freed, and false when the tenant
// could not be compacted.
func (c *Compactor) compact(cand *candidate) (freed int64, ok bool) {
	if err := cand.t.Compact(); err != nil {
		slog.Error("compaction snapshot failed", "tenant", cand.id, "err", err)
		return 0, false
	}
	st := cand.t.RetainStats()
	if d := cand.st.Segments - st.Segments; d > 0 {
		c.prunedC(cand.id).Add(uint64(d))
	}
	freed, cand.st = cand.st.TotalBytes-st.TotalBytes, st
	return freed, true
}
