package server

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/auditgames/sag/internal/admit"
	"github.com/auditgames/sag/internal/alerts"
	"github.com/auditgames/sag/internal/core"
	"github.com/auditgames/sag/internal/dist"
	"github.com/auditgames/sag/internal/emr"
	"github.com/auditgames/sag/internal/game"
	"github.com/auditgames/sag/internal/sim"
)

// The overload smoke test: a capped admission queue, one greedy tenant
// flooding it, and paced polite tenants whose goodput must survive.

// overloadFixture builds a server whose every decision costs solveDelay in
// the solver, behind the given admission config.
func overloadFixture(t *testing.T, adm admit.Config, solveDelay time.Duration) (*Server, *httptest.Server, int, int) {
	t.Helper()
	world, err := emr.NewWorld(emr.WorldConfig{Seed: 5, Employees: 30, Patients: 100, Departments: 4})
	if err != nil {
		t.Fatal(err)
	}
	bgE, bgP := world.NumEmployees(), world.NumPatients()
	if _, err := emr.NewGenerator(world, emr.GeneratorConfig{Seed: 5, PairsPerKind: 3, BackgroundPerDay: 1}); err != nil {
		t.Fatal(err)
	}
	inst, err := sim.Table1Instance(sim.AllTable1TypeIDs())
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{
		World:    world,
		Taxonomy: alerts.NewTable1Taxonomy(),
		TypeIDs:  sim.AllTable1TypeIDs(),
		Instance: inst,
		Budget:   1e9,
		Estimator: core.EstimatorFunc(func(time.Duration) ([]float64, error) {
			return []float64{196.57, 29.02, 140.46, 10.84, 25.43, 15.14, 43.27}, nil
		}),
		Seed:      1,
		Clock:     func() time.Duration { return 9 * time.Hour },
		Admission: adm,
		SSESolve: func(ctx context.Context, inst *game.Instance, budget float64, futures []dist.Poisson) (*game.Result, error) {
			select {
			case <-time.After(solveDelay):
			case <-ctx.Done():
				return nil, ctx.Err()
			}
			return &game.Result{BestType: -1, Coverage: make([]float64, inst.NumTypes())}, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts, bgE, bgP
}

// tenantAccess fires one decision request for tenant and returns the status
// plus both backoff headers (empty unless shed): the coarse RFC 9110
// Retry-After and the precise X-SAG-Retry-After-Ms.
func tenantAccess(t *testing.T, ts *httptest.Server, tenant string, bgE, bgP int) (int, string, string) {
	t.Helper()
	body := strings.NewReader(`{"employee_id":` + strconv.Itoa(bgE) + `,"patient_id":` + strconv.Itoa(bgP) + `}`)
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/access", body)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(TenantHeader, tenant)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode, resp.Header.Get("Retry-After"), resp.Header.Get(RetryAfterMsHeader)
}

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
	_, ts, bgE, bgP := overloadFixture(t, admit.Config{MaxInflight: 4, QueueDepth: 6}, solveDelay)

	// Warm both tenants (creates engines).
	for _, tenant := range []string{"greedy", "polite"} {
		if code, _, _ := tenantAccess(t, ts, tenant, bgE, bgP); code != http.StatusOK {
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
				code, ra, ms := tenantAccess(t, ts, "greedy", bgE, bgP)
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
		if code, _, _ := tenantAccess(t, ts, "polite", bgE, bgP); code == http.StatusOK {
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

	code, metrics := getRaw(t, ts, "/v1/metrics")
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
	srv, ts, bgE, bgP := fixture(t)
	if srv.admit != nil {
		t.Fatal("zero-value Admission config built a controller")
	}
	for i := 0; i < 20; i++ {
		if code, ra, ms := tenantAccess(t, ts, "anyone", bgE, bgP); code != http.StatusOK || ra != "" || ms != "" {
			t.Fatalf("request %d: status %d retry-after %q/%q, want 200 with no backoff headers", i, code, ra, ms)
		}
	}
}

// scrapeLines counts the sample lines a scrape of srv's registry exports.
func scrapeLines(t *testing.T, srv *Server) int {
	t.Helper()
	var buf bytes.Buffer
	if err := srv.Metrics().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, line := range strings.Split(buf.String(), "\n") {
		if line != "" && !strings.HasPrefix(line, "#") {
			n++
		}
	}
	return n
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
		srv, ts, bgE, bgP := fixtureWith(t, func(cfg *Config) {
			cfg.MaxTenants = 2
			cfg.Admission = adm
		})
		if code, _, _ := tenantAccess(t, ts, "resident", bgE, bgP); code != http.StatusOK {
			t.Fatalf("filling the resident cap: status %d", code)
		}
		before := scrapeLines(t, srv)
		for i := 0; i < refused; i++ {
			if code, _, _ := tenantAccess(t, ts, fmt.Sprintf("fresh-%d", i), bgE, bgP); code != http.StatusTooManyRequests {
				t.Fatalf("fresh tenant %d beyond the cap: status %d, want 429", i, code)
			}
		}
		return scrapeLines(t, srv) - before
	}
	off := growth(admit.Config{})
	on := growth(admit.Config{MaxInflight: 8, QueueDepth: 16})
	t.Logf("%d refused tenants grew the scrape by %d lines with admission on, %d with it off", refused, on, off)
	if on != off {
		t.Fatalf("%d refused tenants added %d scrape lines with admission on, %d with it off: admission mints series for client-chosen IDs", refused, on, off)
	}
}
