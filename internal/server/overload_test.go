package server

import (
	"context"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/auditgames/sag/internal/admit"
	"github.com/auditgames/sag/internal/dist"
	"github.com/auditgames/sag/internal/game"
)

// The overload smoke test: a capped admission queue, one greedy tenant
// flooding it, and paced polite tenants whose goodput must survive.

// TestOverloadGreedyTenantShedPoliteSurvives runs the acceptance shape at
// test scale: one greedy tenant floods a small queue from several unpaced
// workers while a polite tenant sends paced singles. The polite tenant must
// keep near-full goodput; the greedy tenant must see 503s carrying
// load-dependent backoff hints — sub-second sojourns all collapse to the
// RFC 9110 integer floor "1" in Retry-After, so load-dependence shows in the
// precise X-SAG-Retry-After-Ms header; the shed must show up in /v1/metrics.
func TestOverloadGreedyTenantShedPoliteSurvives(t *testing.T) {
	// One tenant's decisions are sequential, so 10ms solves cap the greedy
	// tenant at ~100 decisions/s; 12 closed-loop greedy workers against 4
	// slots + 6 queue places keep its queue pinned at QueueDepth, so every
	// further greedy arrival (and every polite push-out) sheds with the
	// head-of-line sojourn as its Retry-After. The config is what sagserver's
	// flags can express: round-robin grants and longest-queue push-out alone
	// keep the polite tenant whole.
	const solveDelay = 10 * time.Millisecond
	_, ts, bgE, bgP := testServer(t, func(cfg *Config) {
		cfg.Budget = 1e9
		cfg.Admission = admit.Config{MaxInflight: 4, QueueDepth: 6}
		// Every decision costs solveDelay in the solver.
		cfg.SSESolve = func(ctx context.Context, inst *game.Instance, budget float64, futures []dist.Poisson) (*game.Result, error) {
			select {
			case <-time.After(solveDelay):
			case <-ctx.Done():
				return nil, ctx.Err()
			}
			return &game.Result{BestType: -1, Coverage: make([]float64, inst.NumTypes())}, nil
		}
	})
	alert := AccessRequest{EmployeeID: bgE, PatientID: bgP}

	// Warm both tenants (creates engines).
	for _, tenant := range []string{"greedy", "polite"} {
		if code, _, _ := do(t, ts.URL, "POST", "/v1/access", tenant, alert); code != http.StatusOK {
			t.Fatalf("warm access for %s: status %d", tenant, code)
		}
	}

	const (
		greedyWorkers   = 12
		politeRequests  = 30
		politeInterval  = 8 * time.Millisecond
		politeGoodFloor = 24 // 80% of politeRequests
	)
	var (
		stop       atomic.Bool
		greedyOK   atomic.Int64
		greedyShed atomic.Int64
		hintsMu    sync.Mutex
		hints      = map[string]int{}
	)
	var wg sync.WaitGroup
	for w := 0; w < greedyWorkers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				code, _, hdr := do(t, ts.URL, "POST", "/v1/access", "greedy", alert)
				ra, ms := hdr.Get("Retry-After"), hdr.Get(RetryAfterMsHeader)
				switch code {
				case http.StatusOK:
					greedyOK.Add(1)
				case http.StatusServiceUnavailable:
					greedyShed.Add(1)
					if ra == "" {
						ms = "" // missing either header is the failure below
					}
					hintsMu.Lock()
					hints[ms]++
					hintsMu.Unlock()
				default:
					t.Errorf("greedy access: unexpected status %d", code)
					return
				}
			}
		}()
	}

	politeOK := 0
	for i := 0; i < politeRequests; i++ {
		if code, _, _ := do(t, ts.URL, "POST", "/v1/access", "polite", alert); code == http.StatusOK {
			politeOK++
		}
		time.Sleep(politeInterval)
	}
	stop.Store(true)
	wg.Wait()

	if politeOK < politeGoodFloor {
		t.Errorf("polite tenant goodput %d/%d, want >= %d: greedy flood starved a paced tenant",
			politeOK, politeRequests, politeGoodFloor)
	}
	if greedyShed.Load() == 0 {
		t.Errorf("greedy tenant was never shed (ok=%d): the queue bound is not being enforced", greedyOK.Load())
	}
	if greedyOK.Load() == 0 {
		t.Error("greedy tenant made no progress at all: shed should ration, not blackhole")
	}
	hintsMu.Lock()
	distinct := len(hints)
	_, sawEmpty := hints[""]
	hintsMu.Unlock()
	if sawEmpty {
		t.Error("a 503 shed response was missing a backoff header")
	}
	if greedyShed.Load() >= 10 && distinct < 2 {
		t.Errorf("all %d sheds carried the same %s hint %v: hint is not computed from load",
			greedyShed.Load(), RetryAfterMsHeader, hints)
	}

	code, metrics, _ := do(t, ts.URL, "GET", "/v1/metrics", "", nil)
	if code != http.StatusOK {
		t.Fatalf("metrics status %d", code)
	}
	for _, want := range []string{
		admit.MetricShedTotal,
		admit.MetricAdmittedTotal,
		admit.MetricQueueWaitSeconds,
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("metrics export missing %q", want)
		}
	}
}

// TestOverloadAdmissionDisabledByDefault: the zero-value Admission config
// must leave the serving path untouched.
func TestOverloadAdmissionDisabledByDefault(t *testing.T) {
	srv, ts, bgE, bgP := testServer(t)
	if srv.admit != nil {
		t.Fatal("zero-value Admission config built a controller")
	}
	for i := 0; i < 20; i++ {
		code, _, hdr := do(t, ts.URL, "POST", "/v1/access", "anyone", AccessRequest{EmployeeID: bgE, PatientID: bgP})
		if ra, ms := hdr.Get("Retry-After"), hdr.Get(RetryAfterMsHeader); code != http.StatusOK || ra != "" || ms != "" {
			t.Fatalf("request %d: status %d retry-after %q/%q, want 200 with no backoff headers", i, code, ra, ms)
		}
	}
}

// TestRefusedTenantsMintNoSeries: admission runs before the tenant is
// resolved, so the tenant ID it sees is whatever the client sent. 500
// requests naming fresh valid tenants beyond a full resident cap are all
// refused 429, and must grow a scrape exactly as much with admission on as
// with it off — one tenant-labelled admission series set per ID let any
// client grow the registry without bound.
func TestRefusedTenantsMintNoSeries(t *testing.T) {
	const refused = 500
	growth := func(adm admit.Config) int {
		srv, ts, bgE, bgP := testServer(t, func(cfg *Config) {
			cfg.MaxTenants = 2
			cfg.Admission = adm
		})
		alert := AccessRequest{EmployeeID: bgE, PatientID: bgP}
		if code, _, _ := do(t, ts.URL, "POST", "/v1/access", "resident", alert); code != http.StatusOK {
			t.Fatalf("filling the resident cap: status %d", code)
		}
		before := len(scrape(t, srv))
		for i := 0; i < refused; i++ {
			if code, _, _ := do(t, ts.URL, "POST", "/v1/access", fmt.Sprintf("fresh-%d", i), alert); code != http.StatusTooManyRequests {
				t.Fatalf("fresh tenant %d beyond the cap: status %d, want 429", i, code)
			}
		}
		return len(scrape(t, srv)) - before
	}
	off := growth(admit.Config{})
	on := growth(admit.Config{MaxInflight: 8, QueueDepth: 16})
	t.Logf("%d refused tenants grew the scrape by %d lines with admission on, %d with it off", refused, on, off)
	if on != off {
		t.Fatalf("%d refused tenants added %d scrape lines with admission on, %d with it off: admission mints series for client-chosen IDs", refused, on, off)
	}
}
