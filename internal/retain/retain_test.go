package retain

import (
	"sync"
	"testing"
	"time"

	"github.com/auditgames/sag/internal/wal"
)

// fakeTenant is a scriptable Tenant: Prune frees PrunableBytes, Compact
// frees ReclaimableBytes and drops a segment, and either can be forced to
// fail.
type fakeTenant struct {
	id string

	mu         sync.Mutex
	st         wal.RetainStats
	ok         bool
	last       time.Time
	compactErr error

	prunes   int
	compacts int
}

func (f *fakeTenant) RetainID() string { return f.id }

func (f *fakeTenant) RetainStats() (wal.RetainStats, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.st, f.ok
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
	if f.compactErr != nil {
		return f.compactErr
	}
	f.st.TotalBytes -= f.st.ReclaimableBytes
	f.st.ReclaimableBytes = 0
	f.st.PrunableBytes = 0
	f.st.Segments--
	return nil
}

func (f *fakeTenant) LastAppend() time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.last
}

func newCompactor(t *testing.T, budget int64, tenants ...*fakeTenant) *Compactor {
	t.Helper()
	list := func() []Tenant {
		out := make([]Tenant, len(tenants))
		for i, ft := range tenants {
			out[i] = ft
		}
		return out
	}
	c, err := New(Config{BudgetBytes: budget, Interval: time.Minute, List: list})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{List: func() []Tenant { return nil }}); err == nil {
		t.Fatal("New accepted a zero budget")
	}
	if _, err := New(Config{BudgetBytes: 1}); err == nil {
		t.Fatal("New accepted a nil List")
	}
	c, err := New(Config{BudgetBytes: 1, List: func() []Tenant { return nil }})
	if err != nil {
		t.Fatal(err)
	}
	if c.cfg.Interval != DefaultInterval {
		t.Fatalf("Interval defaulted to %v, want %v", c.cfg.Interval, DefaultInterval)
	}
}

func TestRunOnceOpportunisticPrune(t *testing.T) {
	ft := &fakeTenant{id: "a", ok: true, last: time.Now(),
		st: wal.RetainStats{Segments: 3, TotalBytes: 300, PrunableBytes: 100, ReclaimableBytes: 100}}
	c := newCompactor(t, 1000, ft)
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
	a := &fakeTenant{id: "a", ok: true, last: time.Now(),
		st: wal.RetainStats{Segments: 4, TotalBytes: 400, ReclaimableBytes: 300}}
	b := &fakeTenant{id: "b", ok: true, last: time.Now(),
		st: wal.RetainStats{Segments: 4, TotalBytes: 400, ReclaimableBytes: 100}}
	c := newCompactor(t, 500, a, b)
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
	a := &fakeTenant{id: "a", ok: true, last: time.Now(),
		st: wal.RetainStats{Segments: 1, TotalBytes: 900}}
	b := &fakeTenant{id: "b", ok: true, last: time.Now(),
		st: wal.RetainStats{Segments: 2, TotalBytes: 300, ReclaimableBytes: 200}}
	c := newCompactor(t, 500, a, b)
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

	// Eviction lifts the block.
	c.Forget("a")
	if _, blocked := c.Blocked("a"); blocked {
		t.Fatal("Blocked after Forget")
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

func TestRunOnceSkipsBusyTenant(t *testing.T) {
	a := &fakeTenant{id: "a", ok: true, last: time.Now(), compactErr: ErrBusy,
		st: wal.RetainStats{Segments: 4, TotalBytes: 600, ReclaimableBytes: 500}}
	b := &fakeTenant{id: "b", ok: true, last: time.Now(),
		st: wal.RetainStats{Segments: 4, TotalBytes: 400, ReclaimableBytes: 300}}
	c := newCompactor(t, 500, a, b)
	c.RunOnce()
	// a (more reclaimable) is tried first but busy; b is compacted instead.
	if a.compacts != 1 || b.compacts != 1 {
		t.Fatalf("compacts = a:%d b:%d, want 1 and 1 (busy skip falls through)", a.compacts, b.compacts)
	}
}

func TestRunOnceSkipsJournallessTenant(t *testing.T) {
	a := &fakeTenant{id: "a", ok: false,
		st: wal.RetainStats{Segments: 9, TotalBytes: 9999, ReclaimableBytes: 9999}}
	c := newCompactor(t, 1, a)
	c.RunOnce()
	if a.compacts != 0 || a.prunes != 0 {
		t.Fatal("tenant without a journal was touched")
	}
	if pressure(c) {
		t.Fatal("journalless tenant counted against the budget")
	}
}

func TestCompactionOrder(t *testing.T) {
	cands := []candidate{
		{id: "busy-big", idle: false, st: wal.RetainStats{ReclaimableBytes: 900}},
		{id: "idle-small", idle: true, st: wal.RetainStats{ReclaimableBytes: 10}},
		{id: "idle-big", idle: true, st: wal.RetainStats{ReclaimableBytes: 500}},
		{id: "busy-small", idle: false, st: wal.RetainStats{ReclaimableBytes: 20}},
	}
	got := compactionOrder(cands, 0)
	want := []string{"idle-big", "idle-small", "busy-big", "busy-small"}
	for i, idx := range got {
		if cands[idx].id != want[i] {
			t.Fatalf("order[%d] = %s, want %s (full order %v)", i, cands[idx].id, want[i], got)
		}
	}
	// Rotation shifts the start position without reordering the cycle.
	rot := compactionOrder(cands, 1)
	if cands[rot[0]].id != "idle-small" || cands[rot[3]].id != "idle-big" {
		t.Fatalf("rr=1 rotation wrong: got %s..%s", cands[rot[0]].id, cands[rot[3]].id)
	}
	if len(compactionOrder(nil, 3)) != 0 {
		t.Fatal("empty candidate set must yield an empty order")
	}
}

func TestStartStopKickLifecycle(t *testing.T) {
	ft := &fakeTenant{id: "a", ok: true, last: time.Now(),
		st: wal.RetainStats{Segments: 1, TotalBytes: 10}}
	c := newCompactor(t, 100, ft)
	c.Start()
	c.Start() // idempotent
	c.Kick()
	c.Kick() // coalesced, never blocks
	c.Stop()
	c.Stop() // idempotent
	c.Kick() // after Stop: still safe
	// Start after Stop must not relaunch the loop.
	c.Start()
	ft.mu.Lock()
	ft.last = time.Now()
	ft.mu.Unlock()
}

func TestKickDebounce(t *testing.T) {
	var clock struct {
		sync.Mutex
		t time.Time
	}
	clock.t = time.Unix(1000, 0)
	now := func() time.Time {
		clock.Lock()
		defer clock.Unlock()
		return clock.t
	}
	ft := &fakeTenant{id: "a", ok: true, st: wal.RetainStats{TotalBytes: 1}}
	var scans int
	var smu sync.Mutex
	list := func() []Tenant {
		smu.Lock()
		scans++
		smu.Unlock()
		return []Tenant{ft}
	}
	c, err := New(Config{BudgetBytes: 100, Interval: time.Hour, List: list, Now: now})
	if err != nil {
		t.Fatal(err)
	}
	c.RunOnce() // stamps the scan time at the fake clock
	base := scans

	// Inside the debounce window a kick is dropped on the caller's side: it
	// must not reach the channel, where it would wake the loop goroutine only
	// to be discarded.
	for i := 0; i < 3; i++ {
		c.Kick()
	}
	if n := len(c.kickCh); n != 0 {
		t.Fatalf("kicks inside the window: %d queued, want them dropped by Kick", n)
	}

	clock.Lock()
	clock.t = clock.t.Add(time.Second)
	clock.Unlock()
	c.Kick()
	c.Kick() // coalesced
	if n := len(c.kickCh); n != 1 {
		t.Fatalf("kicks after the window: %d queued, want exactly one", n)
	}
	c.RunOnce()
	smu.Lock()
	grew := scans > base
	smu.Unlock()
	if !grew {
		t.Fatal("RunOnce did not rescan")
	}
}

// pressure reports whether the box was over budget at the last scan even
// after compaction.
func pressure(c *Compactor) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.pressure
}
