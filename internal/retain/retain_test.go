package retain

import (
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/auditgames/sag/internal/obs"
	"github.com/auditgames/sag/internal/wal"
)

// fakeTenant is a scriptable Tenant: Prune frees PrunableBytes, Compact
// frees ReclaimableBytes, drops a segment and empties the tail, and either
// can be forced to fail.
type fakeTenant struct {
	id string

	mu         sync.Mutex
	st         wal.RetainStats
	compactErr error
	order      *[]string // appends id on every Compact when set

	prunes   int
	compacts int
}

func (f *fakeTenant) RetainID() string { return f.id }

func (f *fakeTenant) RetainStats() wal.RetainStats {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.st
}

func (f *fakeTenant) Prune() (int, int64, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.prunes++
	freed := f.st.PrunableBytes
	if freed <= 0 {
		return 0, 0, nil
	}
	f.st.TotalBytes -= freed
	f.st.ReclaimableBytes -= freed
	f.st.PrunableBytes = 0
	f.st.Segments--
	return 1, freed, nil
}

func (f *fakeTenant) Compact() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.compacts++
	if f.order != nil {
		*f.order = append(*f.order, f.id)
	}
	if f.compactErr != nil {
		return f.compactErr
	}
	f.st.TotalBytes -= f.st.ReclaimableBytes
	f.st.ReclaimableBytes = 0
	f.st.PrunableBytes = 0
	f.st.TailRecords = 0
	f.st.Segments--
	return nil
}

func newCompactor(t *testing.T, cfg Config, tenants ...*fakeTenant) *Compactor {
	t.Helper()
	cfg.Interval = time.Minute
	cfg.List = func() []Tenant {
		out := make([]Tenant, len(tenants))
		for i, ft := range tenants {
			out[i] = ft
		}
		return out
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{BudgetBytes: 1}); err == nil {
		t.Fatal("New accepted a nil List")
	}
	// No budget is a cadence-only scan, not an error.
	c, err := New(Config{List: func() []Tenant { return nil }})
	if err != nil {
		t.Fatal(err)
	}
	if c.cfg.Interval != DefaultInterval {
		t.Fatalf("Interval defaulted to %v, want %v", c.cfg.Interval, DefaultInterval)
	}
}

// TestRunOnceSnapshotsPastTheCadence: with or without a budget, a scan
// snapshots exactly the tenants whose tail reached SnapshotEvery, and a
// budget-less scan registers no sag_retain_* series and blocks no one.
func TestRunOnceSnapshotsPastTheCadence(t *testing.T) {
	for _, budget := range []int64{0, 1 << 20} {
		due := &fakeTenant{id: "due", st: wal.RetainStats{Segments: 2, TotalBytes: 200, ReclaimableBytes: 100, TailRecords: 5}}
		early := &fakeTenant{id: "early", st: wal.RetainStats{Segments: 2, TotalBytes: 200, ReclaimableBytes: 100, TailRecords: 4}}
		reg := obs.NewRegistry()
		c := newCompactor(t, Config{BudgetBytes: budget, SnapshotEvery: 5, Metrics: reg}, due, early)
		c.RunOnce()
		if due.compacts != 1 || early.compacts != 0 {
			t.Fatalf("budget %d: compacts = due:%d early:%d, want 1 and 0", budget, due.compacts, early.compacts)
		}
		c.RunOnce() // due's tail is empty now
		if due.compacts != 1 {
			t.Fatalf("budget %d: a tenant with an empty tail was snapshotted again", budget)
		}
		var series []string
		for name := range reg.Snapshot().Gauges {
			series = append(series, name)
		}
		for name := range reg.Snapshot().Counters {
			series = append(series, name)
		}
		hasRetain := strings.Contains(strings.Join(series, " "), "sag_retain_")
		if hasRetain != (budget > 0) {
			t.Fatalf("budget %d: sag_retain_* series registered = %v (%v)", budget, hasRetain, series)
		}
		if _, blocked := c.Blocked("early"); blocked {
			t.Fatalf("budget %d: a tenant under budget is blocked", budget)
		}
	}
}

func TestRunOnceOpportunisticPrune(t *testing.T) {
	ft := &fakeTenant{id: "a",
		st: wal.RetainStats{Segments: 3, TotalBytes: 300, PrunableBytes: 100, ReclaimableBytes: 100}}
	c := newCompactor(t, Config{BudgetBytes: 1000}, ft)
	c.RunOnce()
	if ft.prunes != 1 {
		t.Fatalf("prunes = %d, want 1", ft.prunes)
	}
	if ft.compacts != 0 {
		t.Fatalf("compaction ran while under budget (compacts = %d)", ft.compacts)
	}
	if ft.st.TotalBytes != 200 {
		t.Fatalf("TotalBytes = %d after prune, want 200", ft.st.TotalBytes)
	}
	if pressure(c) {
		t.Fatal("pressure set while under budget")
	}
}

func TestRunOnceCompactsUntilUnderBudget(t *testing.T) {
	a := &fakeTenant{id: "a",
		st: wal.RetainStats{Segments: 4, TotalBytes: 400, ReclaimableBytes: 300}}
	b := &fakeTenant{id: "b",
		st: wal.RetainStats{Segments: 4, TotalBytes: 400, ReclaimableBytes: 100}}
	c := newCompactor(t, Config{BudgetBytes: 500}, a, b)
	c.RunOnce()
	// a alone brings 800 down to 500: b must be left alone.
	if a.compacts != 1 {
		t.Fatalf("a.compacts = %d, want 1", a.compacts)
	}
	if b.compacts != 0 {
		t.Fatalf("b.compacts = %d, want 0 (box already fit)", b.compacts)
	}
	if pressure(c) {
		t.Fatal("pressure set after compaction brought the box under budget")
	}
	if _, blocked := c.Blocked("a"); blocked {
		t.Fatal("tenant blocked while box fits")
	}
}

func TestRunOncePressureAndBlocked(t *testing.T) {
	// All live tail: nothing reclaimable anywhere, box hopelessly over.
	a := &fakeTenant{id: "a",
		st: wal.RetainStats{Segments: 1, TotalBytes: 900}}
	b := &fakeTenant{id: "b",
		st: wal.RetainStats{Segments: 2, TotalBytes: 300, ReclaimableBytes: 200}}
	c := newCompactor(t, Config{BudgetBytes: 500}, a, b)
	c.RunOnce()
	if !pressure(c) {
		t.Fatal("pressure not set with box over budget and nothing left to reclaim")
	}
	ra, blocked := c.Blocked("a")
	if !blocked {
		t.Fatal("tenant with no reclaimable bytes not blocked under pressure")
	}
	if ra != time.Minute {
		t.Fatalf("retryAfter = %v, want the scan interval (1m)", ra)
	}
	// b was compacted to zero reclaimable, so it is blocked too — but only
	// after its compaction actually ran.
	if b.compacts != 1 {
		t.Fatalf("b.compacts = %d, want 1", b.compacts)
	}
	if _, blocked := c.Blocked("b"); !blocked {
		t.Fatal("fully-compacted tenant not blocked while box still over budget")
	}

	// Recovery: a snapshot elsewhere frees enough; the next round clears all.
	a.mu.Lock()
	a.st.TotalBytes = 100
	a.mu.Unlock()
	c.RunOnce()
	if pressure(c) {
		t.Fatal("pressure still set after the box shrank under budget")
	}
	if _, blocked := c.Blocked("b"); blocked {
		t.Fatal("block survived pressure clearing")
	}
}

// TestCompactionOrder: over budget, tenants are compacted most reclaimable
// bytes first.
func TestCompactionOrder(t *testing.T) {
	var order []string
	var tenants []*fakeTenant
	for _, x := range []struct {
		id          string
		reclaimable int64
	}{{"small", 10}, {"big", 900}, {"mid", 500}} {
		tenants = append(tenants, &fakeTenant{id: x.id, order: &order,
			st: wal.RetainStats{Segments: 2, TotalBytes: 1000, ReclaimableBytes: x.reclaimable}})
	}
	c := newCompactor(t, Config{BudgetBytes: 1}, tenants...)
	c.RunOnce()
	if got := strings.Join(order, ","); got != "big,mid,small" {
		t.Fatalf("compaction order %s, want big,mid,small", got)
	}
}

func TestStartStopLifecycle(t *testing.T) {
	ft := &fakeTenant{id: "a",
		st: wal.RetainStats{Segments: 1, TotalBytes: 10, TailRecords: 1}}
	c := newCompactor(t, Config{BudgetBytes: 100, SnapshotEvery: 1}, ft)
	c.Start()
	c.Start()   // idempotent
	c.RunOnce() // beside the loop's startup scan: the race detector checks the two
	c.Stop()
	c.Stop() // idempotent
	// Start after Stop must not relaunch the loop.
	c.Start()
}

// pressure reports whether the box was over budget at the last scan even
// after compaction.
func pressure(c *Compactor) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.pressure
}
