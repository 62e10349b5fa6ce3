package admit

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/auditgames/sag/internal/obs"
)

// fakeClock is a manually advanced clock shared by a test and a Controller.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func mustNew(t *testing.T, cfg Config) *Controller {
	t.Helper()
	c, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return c
}

func admitNow(t *testing.T, c *Controller, tenant string) func() {
	t.Helper()
	release, err := c.Admit(context.Background(), tenant)
	if err != nil {
		t.Fatalf("Admit(%q): %v", tenant, err)
	}
	return release
}

func shedReason(t *testing.T, err error) *ShedError {
	t.Helper()
	var se *ShedError
	if !errors.As(err, &se) {
		t.Fatalf("want *ShedError, got %v", err)
	}
	return se
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("zero config should not construct a controller")
	}
	if _, err := New(Config{Rate: -1}); err == nil {
		t.Fatal("negative rate should be rejected")
	}
	if (Config{}).Enabled() {
		t.Fatal("zero config must report disabled")
	}
	if !(Config{MaxInflight: 4}).Enabled() {
		t.Fatal("inflight-only config must report enabled")
	}
}

func TestTokenBucketRateShed(t *testing.T) {
	clk := newFakeClock()
	c := mustNew(t, Config{Rate: 10, Burst: 2, Now: clk.Now})

	// Burst of 2 admits; the third is over rate.
	r1 := admitNow(t, c, "a")
	r2 := admitNow(t, c, "a")
	r1()
	r2()
	_, err := c.Admit(context.Background(), "a")
	se := shedReason(t, err)
	if se.Reason != ReasonRate {
		t.Fatalf("reason = %q, want %q", se.Reason, ReasonRate)
	}
	// Empty bucket at 10/s: one token is 100ms away.
	if se.RetryAfter != 100*time.Millisecond {
		t.Fatalf("RetryAfter = %v, want 100ms", se.RetryAfter)
	}

	// Half a token later the hint shrinks: the header is not a constant.
	clk.Advance(50 * time.Millisecond)
	_, err = c.Admit(context.Background(), "a")
	se2 := shedReason(t, err)
	if se2.RetryAfter != 50*time.Millisecond {
		t.Fatalf("RetryAfter = %v, want 50ms", se2.RetryAfter)
	}

	// A full refill admits again, and tenant b was never throttled.
	clk.Advance(100 * time.Millisecond)
	admitNow(t, c, "a")()
	admitNow(t, c, "b")()
}

func TestQueueGrantOnRelease(t *testing.T) {
	c := mustNew(t, Config{MaxInflight: 1, QueueDepth: 4})
	rA := admitNow(t, c, "a")

	got := make(chan struct{})
	go func() {
		r, err := c.Admit(context.Background(), "b")
		if err == nil {
			r()
		}
		close(got)
	}()
	waitQueued(t, c, 1)
	if s := c.Snapshot(); s.Inflight != 1 {
		t.Fatalf("inflight = %d, want 1", s.Inflight)
	}
	rA()
	<-got
	if s := c.Snapshot(); s.Inflight != 0 || s.Queued != 0 {
		t.Fatalf("after drain: %+v", s)
	}
}

// waitQueued polls until the queue depth reaches n (grants and enqueues
// happen on other goroutines).
func waitQueued(t *testing.T, c *Controller, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for c.Snapshot().Queued < n {
		if time.Now().After(deadline) {
			t.Fatalf("queue never reached %d (at %d)", n, c.Snapshot().Queued)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestRoundRobinFairness(t *testing.T) {
	c := mustNew(t, Config{MaxInflight: 1, QueueDepth: 16})
	hold := admitNow(t, c, "greedy")

	// Enqueue three greedy waiters, then one polite one. Enqueue order is
	// made deterministic by waiting for each to be queued before starting
	// the next.
	order := make(chan string, 4)
	enqueue := func(tenant, tag string, depth int) {
		go func() {
			r, err := c.Admit(context.Background(), tenant)
			if err != nil {
				order <- "shed:" + tag
				return
			}
			order <- tag
			r() // serialize: next grant happens only after this one finishes
		}()
		waitQueued(t, c, depth)
	}
	enqueue("greedy", "g1", 1)
	enqueue("greedy", "g2", 2)
	enqueue("greedy", "g3", 3)
	enqueue("polite", "p1", 4)

	hold()
	var got []string
	for i := 0; i < 4; i++ {
		got = append(got, <-order)
	}
	// Round-robin alternates tenants: polite is served second despite
	// three greedy requests queued ahead of it.
	want := []string{"g1", "p1", "g2", "g3"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("grant order = %v, want %v", got, want)
		}
	}
}

func TestQueueFullShed(t *testing.T) {
	c := mustNew(t, Config{MaxInflight: 1, QueueDepth: 1})
	hold := admitNow(t, c, "a")
	go func() {
		r, err := c.Admit(context.Background(), "a")
		if err == nil {
			r()
		}
	}()
	waitQueued(t, c, 1)
	_, err := c.Admit(context.Background(), "a")
	if se := shedReason(t, err); se.Reason != ReasonQueueFull {
		t.Fatalf("reason = %q, want %q", se.Reason, ReasonQueueFull)
	}
	hold()
}

// TestQueueFullPushOut: a full queue is shared by longest-queue drop — an
// arrival from a short-queued tenant evicts the greedy tenant's newest
// waiter instead of being turned away.
func TestQueueFullPushOut(t *testing.T) {
	c := mustNew(t, Config{MaxInflight: 1, QueueDepth: 2})
	hold := admitNow(t, c, "greedy")

	// Fill the queue with two greedy waiters (deterministic order).
	outcome := make(chan string, 3)
	enqueue := func(tenant, tag string, depth int) {
		go func() {
			r, err := c.Admit(context.Background(), tenant)
			if err != nil {
				se := &ShedError{}
				if !errors.As(err, &se) || se.Reason != ReasonQueueFull {
					t.Errorf("%s: err = %v, want queue_full shed", tag, err)
				}
				outcome <- "shed:" + tag
				return
			}
			outcome <- "ok:" + tag
			r()
		}()
		waitQueued(t, c, depth)
	}
	enqueue("greedy", "g1", 1)
	enqueue("greedy", "g2", 2)

	// The queue is at depth. A polite arrival must push out g2 (the newest
	// waiter of the longest queue) and take its place.
	if got := <-runAdmit(c, "polite", outcome, "p1"); got != "shed:g2" {
		t.Fatalf("first outcome = %q, want the greedy tail pushed out (shed:g2)", got)
	}
	hold()
	if got := <-outcome; got != "ok:g1" {
		t.Fatalf("second outcome = %q, want ok:g1", got)
	}
	if got := <-outcome; got != "ok:p1" {
		t.Fatalf("third outcome = %q, want ok:p1", got)
	}

	// With only greedy queues at depth, a greedy arrival is itself shed:
	// a tenant cannot push out its own kind to jump the line.
	hold2 := admitNow(t, c, "greedy")
	g3 := make(chan string, 3)
	enqueue2 := func(tag string, depth int) {
		go func() {
			r, err := c.Admit(context.Background(), "greedy")
			if err != nil {
				g3 <- "shed:" + tag
				return
			}
			g3 <- "ok:" + tag
			r()
		}()
		waitQueued(t, c, depth)
	}
	enqueue2("h1", 1)
	enqueue2("h2", 2)
	if _, err := c.Admit(context.Background(), "greedy"); shedReason(t, err).Reason != ReasonQueueFull {
		t.Fatalf("greedy arrival into its own full queue: %v, want queue_full", err)
	}
	hold2()
	<-g3
	<-g3
}

// runAdmit starts an Admit on its own goroutine reporting into outcome, and
// returns outcome for the caller to read the first settled result.
func runAdmit(c *Controller, tenant string, outcome chan string, tag string) chan string {
	go func() {
		r, err := c.Admit(context.Background(), tenant)
		if err != nil {
			outcome <- "shed:" + tag
			return
		}
		outcome <- "ok:" + tag
		r()
	}()
	return outcome
}

// TestDrainRateFeedsRetryAfter: the completion-rate estimator sheds nothing;
// it is the source of a queue shed's Retry-After.
func TestDrainRateFeedsRetryAfter(t *testing.T) {
	clk := newFakeClock()
	c := mustNew(t, Config{MaxInflight: 1, Now: clk.Now})

	// Two completions landed in a still-filling first window with no time
	// elapsed: the estimator divides by the minimum observation span rather
	// than the full window and reads a high rate.
	admitNow(t, c, "a")()
	admitNow(t, c, "b")()
	if rate := c.Snapshot().DrainRate; rate != 200 {
		t.Fatalf("cold-window drain rate = %v, want the 2 completions spread over the minimum span (200/s)", rate)
	}

	// A full window later the estimator is warm: 2 per half-second window =
	// 4/s, so an arrival shed at position 1 is told to come back in 250ms.
	clk.Advance(drainWindow)
	if rate := c.Snapshot().DrainRate; rate != 4 {
		t.Fatalf("warm-window drain rate = %v, want 4/s", rate)
	}
	hold := admitNow(t, c, "a")
	_, err := c.Admit(context.Background(), "b")
	se := shedReason(t, err)
	if se.Reason != ReasonQueueFull {
		t.Fatalf("reason = %q, want %q", se.Reason, ReasonQueueFull)
	}
	if se.RetryAfter != 250*time.Millisecond {
		t.Fatalf("RetryAfter = %v, want 250ms (1 / 4 per second)", se.RetryAfter)
	}
	hold()
}

func TestCancelWhileQueued(t *testing.T) {
	c := mustNew(t, Config{MaxInflight: 1, QueueDepth: 2})
	hold := admitNow(t, c, "a")
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := c.Admit(ctx, "b")
		done <- err
	}()
	waitQueued(t, c, 1)
	cancel()
	if se := shedReason(t, <-done); se.Reason != ReasonCanceled {
		t.Fatalf("reason = %q, want %q", se.Reason, ReasonCanceled)
	}
	if s := c.Snapshot(); s.Queued != 0 {
		t.Fatalf("abandoned waiter still queued: %+v", s)
	}
	hold()
	admitNow(t, c, "b")()
}

func TestReleaseIdempotent(t *testing.T) {
	c := mustNew(t, Config{MaxInflight: 2})
	r := admitNow(t, c, "a")
	r()
	r() // must not double-free the slot
	if s := c.Snapshot(); s.Inflight != 0 {
		t.Fatalf("inflight = %d after double release", s.Inflight)
	}
}

func TestGateTableCapAndForget(t *testing.T) {
	clk := newFakeClock()
	c := mustNew(t, Config{Rate: 100, MaxTenants: 2, Now: clk.Now})
	for i := 0; i < 5; i++ {
		clk.Advance(time.Millisecond)
		admitNow(t, c, fmt.Sprintf("t%d", i))()
	}
	if s := c.Snapshot(); s.Tenants > 2 {
		t.Fatalf("gate table grew past cap: %d", s.Tenants)
	}
	admitNow(t, c, "keep")()
	c.Forget("keep")
	c.Forget("keep") // idempotent
}

func TestFormatRetryAfter(t *testing.T) {
	// RFC 9110 §10.2.3: Retry-After carries whole delta-seconds only.
	// Sub-second hints must round UP to "1", never render as decimals.
	cases := []struct {
		d    time.Duration
		want string
	}{
		{0, "1"},
		{-time.Second, "1"},
		{50 * time.Millisecond, "1"},
		{250 * time.Millisecond, "1"},
		{999 * time.Millisecond, "1"},
		{time.Second, "1"},
		{1500 * time.Millisecond, "2"},
		{30 * time.Second, "30"},
	}
	for _, tc := range cases {
		if got := FormatRetryAfter(tc.d); got != tc.want {
			t.Errorf("FormatRetryAfter(%v) = %q, want %q", tc.d, got, tc.want)
		}
		if strings.Contains(FormatRetryAfter(tc.d), ".") {
			t.Errorf("FormatRetryAfter(%v) = %q: decimal seconds are spec-invalid", tc.d, FormatRetryAfter(tc.d))
		}
	}
}

func TestFormatRetryAfterMs(t *testing.T) {
	cases := []struct {
		d    time.Duration
		want string
	}{
		{0, "1"},
		{-time.Second, "1"},
		{time.Microsecond, "1"},
		{50 * time.Millisecond, "50"},
		{250 * time.Millisecond, "250"},
		{250*time.Millisecond + time.Microsecond, "251"},
		{time.Second, "1000"},
		{30 * time.Second, "30000"},
	}
	for _, tc := range cases {
		if got := FormatRetryAfterMs(tc.d); got != tc.want {
			t.Errorf("FormatRetryAfterMs(%v) = %q, want %q", tc.d, got, tc.want)
		}
	}
}

func TestMetricsExported(t *testing.T) {
	reg := obs.NewRegistry()
	c := mustNew(t, Config{Rate: 1, Burst: 1, MaxInflight: 1, Metrics: reg})
	admitNow(t, c, "a")()
	if _, err := c.Admit(context.Background(), "a"); err == nil {
		t.Fatal("second over-rate admit should shed")
	}
	var sb strings.Builder
	reg.WritePrometheus(&sb)
	out := sb.String()
	for _, want := range []string{MetricAdmittedTotal, MetricShedTotal, MetricInflight} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics export missing %s:\n%s", want, out)
		}
	}
}

// TestAdmitStress hammers the controller from many goroutines with mixed
// cancellation, timeouts, and releases; the race detector, the invariant
// checked after every operation (a free slot and a non-empty queue never
// coexist) and the final occupancy check are the assertions.
func TestAdmitStress(t *testing.T) {
	const maxInflight = 8
	c := mustNew(t, Config{
		Rate: 50000, Burst: 1000,
		MaxInflight: maxInflight, QueueDepth: 32,
	})
	checkInvariant := func() {
		if s := c.Snapshot(); s.Inflight < maxInflight && s.Queued != 0 {
			t.Errorf("free slot beside a non-empty queue: %+v", s)
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			tenant := fmt.Sprintf("t%d", w%5)
			for i := 0; i < 200; i++ {
				ctx := context.Background()
				var cancel context.CancelFunc = func() {}
				if rng.Intn(4) == 0 {
					ctx, cancel = context.WithTimeout(ctx, time.Duration(rng.Intn(3))*time.Millisecond)
				}
				release, err := c.Admit(ctx, tenant)
				checkInvariant()
				if err == nil {
					if rng.Intn(8) == 0 {
						time.Sleep(time.Duration(rng.Intn(200)) * time.Microsecond)
					}
					release()
					checkInvariant()
				}
				cancel()
			}
		}(w)
	}
	wg.Wait()
	if s := c.Snapshot(); s.Inflight != 0 || s.Queued != 0 {
		t.Fatalf("leaked occupancy after stress: %+v", s)
	}
}
