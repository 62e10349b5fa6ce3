package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/auditgames/sag/internal/core"
	"github.com/auditgames/sag/internal/sim"
)

// TestCycleRolloverResetsFullStatus is the regression test for the stale
// `quits` counter: after traffic, a quit, and a cycle rollover, the full
// /v1/status snapshot must show every per-cycle counter reset, with the
// flagged-user set (deliberately) surviving.
func TestCycleRolloverResetsFullStatus(t *testing.T) {
	_, ts, bgE, bgP := testServer(t)
	for i := 0; i < 10; i++ {
		do(t, ts.URL, "POST", "/v1/access", "", AccessRequest{EmployeeID: bgE, PatientID: bgP})
	}
	if code, _, _ := do(t, ts.URL, "POST", "/v1/quit", "", QuitRequest{EmployeeID: bgE}); code != http.StatusOK {
		t.Fatalf("quit status %d", code)
	}
	if code, _, _ := do(t, ts.URL, "POST", "/v1/cycle/new", "", NewCycleRequest{Budget: 30}); code != http.StatusOK {
		t.Fatalf("new cycle status %d", code)
	}
	code, body, _ := do(t, ts.URL, "GET", "/v1/status", "", nil)
	if code != http.StatusOK {
		t.Fatalf("status code %d", code)
	}
	want := Status{
		Tenant:          DefaultTenantID,
		ActiveTenants:   1,
		Budget:          30,
		RemainingBudget: 30,
		Accesses:        0,
		Alerts:          0,
		Warned:          0,
		Quits:           0, // the previously stale field
		FlaggedUsers:    1, // quits reveal the requester for good
		NumTypes:        7,
	}
	if st := decode[Status](t, body); st != want {
		t.Fatalf("post-rollover status = %+v, want %+v", st, want)
	}
}

// TestHandlerErrorPaths covers every POST route's malformed-JSON branch and
// the domain error branches, asserting status codes and the JSON error
// shape.
func TestHandlerErrorPaths(t *testing.T) {
	_, ts, _, _ := testServer(t)
	cases := []struct {
		name     string
		path     string
		body     string
		wantCode int
	}{
		{"access invalid json", "/v1/access", "{not json", http.StatusBadRequest},
		{"access truncated json", "/v1/access", `{"employee_id":`, http.StatusBadRequest},
		{"quit invalid json", "/v1/quit", "][", http.StatusBadRequest},
		{"quit unknown employee", "/v1/quit", `{"employee_id": 1048576}`, http.StatusBadRequest},
		{"quit negative employee", "/v1/quit", `{"employee_id": -1}`, http.StatusBadRequest},
		{"cycle new invalid json", "/v1/cycle/new", "budget=5", http.StatusBadRequest},
		{"cycle new negative budget", "/v1/cycle/new", `{"budget": -1}`, http.StatusBadRequest},
		{"cycle new NaN-free garbage", "/v1/cycle/new", `{"budget": "lots"}`, http.StatusBadRequest},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			code, body, _ := do(t, ts.URL, "POST", c.path, "", c.body)
			if code != c.wantCode {
				t.Fatalf("status %d, want %d", code, c.wantCode)
			}
			if e := decode[apiError](t, body); e.Error == "" {
				t.Fatal("error body must carry a non-empty \"error\" field")
			}
		})
	}

	// /v1/cycle/close takes no body and ignores whatever is posted.
	if code, _, _ := do(t, ts.URL, "POST", "/v1/cycle/close", "", "{garbage"); code != http.StatusOK {
		t.Fatalf("cycle/close with garbage body: status %d, want 200 (body ignored)", code)
	}
}

// TestUnmodeledTypePassthrough: alerts whose taxonomy type has no payoff
// structure are reported but never warned and never charged.
func TestUnmodeledTypePassthrough(t *testing.T) {
	// The server games taxonomy type 2 only, so the planted same-last-name
	// (type 1) pair produces unmodeled-type alerts.
	_, ts, bgE, bgP := testServer(t, func(cfg *Config) {
		cfg.TypeIDs = []int{2}
		var err error
		if cfg.Instance, err = sim.Table1Instance(cfg.TypeIDs); err != nil {
			t.Fatal(err)
		}
		cfg.Estimator = core.EstimatorFunc(func(time.Duration) ([]float64, error) { return []float64{fixtureRates[1]}, nil })
	})
	for i := 0; i < 5; i++ {
		code, body, _ := do(t, ts.URL, "POST", "/v1/access", "", AccessRequest{EmployeeID: bgE, PatientID: bgP})
		if code != http.StatusOK {
			t.Fatalf("status %d", code)
		}
		resp := decode[AccessResponse](t, body)
		if !resp.Alert || resp.TypeID != 1 {
			t.Fatalf("planted pair should alert with type 1: %+v", resp)
		}
		if resp.Warn {
			t.Fatalf("unmodeled type must never warn: %+v", resp)
		}
		if resp.RemainingBudget != 50 {
			t.Fatalf("unmodeled type must not charge budget: %+v", resp)
		}
	}
	_, body, _ := do(t, ts.URL, "GET", "/v1/status", "", nil)
	if st := decode[Status](t, body); st.Accesses != 5 || st.Alerts != 5 || st.Warned != 0 {
		t.Fatalf("status %+v", st)
	}
}

// TestFlaggedQuitterAlwaysWarn: once an employee quits, every subsequent
// alerting access is warned and marked flagged, regardless of the game.
func TestFlaggedQuitterAlwaysWarn(t *testing.T) {
	_, ts, bgE, bgP := testServer(t)
	if code, _, _ := do(t, ts.URL, "POST", "/v1/quit", "", QuitRequest{EmployeeID: bgE}); code != http.StatusOK {
		t.Fatalf("quit status %d", code)
	}
	for i := 0; i < 10; i++ {
		code, body, _ := do(t, ts.URL, "POST", "/v1/access", "", AccessRequest{EmployeeID: bgE, PatientID: bgP})
		if code != http.StatusOK {
			t.Fatalf("status %d", code)
		}
		if resp := decode[AccessResponse](t, body); !resp.Warn || !resp.Flagged {
			t.Fatalf("flagged quitter must always be warned: %+v", resp)
		}
	}
	_, body, _ := do(t, ts.URL, "GET", "/v1/status", "", nil)
	if st := decode[Status](t, body); st.Warned != 10 || st.FlaggedUsers != 1 {
		t.Fatalf("status %+v", st)
	}
}

// TestMetricsEndpoint drives real traffic and asserts the acceptance
// criteria on /v1/metrics: Prometheus text format with request latency
// histograms, per-stage engine timings, simplex counters, and the
// remaining-budget gauge.
func TestMetricsEndpoint(t *testing.T) {
	srv, ts, bgE, bgP := testServer(t)
	for i := 0; i < 10; i++ {
		do(t, ts.URL, "POST", "/v1/access", "", AccessRequest{EmployeeID: bgE, PatientID: bgP})
	}
	do(t, ts.URL, "POST", "/v1/quit", "", QuitRequest{EmployeeID: bgE})
	do(t, ts.URL, "GET", "/v1/status", "", nil)

	code, body, hdr := do(t, ts.URL, "GET", "/v1/metrics", "", nil)
	if code != http.StatusOK {
		t.Fatalf("metrics status %d", code)
	}
	if ct := hdr.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("metrics content type %q", ct)
	}
	for _, want := range []string{
		// HTTP middleware.
		`sag_http_requests_total{code="200",route="/v1/access"} 10`,
		`sag_http_request_seconds_count{route="/v1/access"} 10`,
		`sag_http_request_seconds_bucket{route="/v1/access",le="+Inf"} 10`,
		// Service counters, labeled by tenant.
		`sag_server_accesses_total{tenant="default"} 10`,
		`sag_server_alerts_total{tenant="default"} 10`,
		`sag_server_quits_total{tenant="default"} 1`,
		`sag_server_flagged_users{tenant="default"} 1`,
		// Engine per-stage timings (shared by every tenant) and solver
		// counters (labeled by tenant).
		`sag_engine_stage_seconds_count{stage="estimate"} 10`,
		`sag_engine_stage_seconds_count{stage="sse"} 10`,
		`sag_engine_stage_seconds_count{stage="signal"} 10`,
		`sag_engine_lp_solves_total{tenant="default"} 70`, // 10 decisions × 7 attackable types
		// Shard accounting.
		"sag_shard_tenants_active 1",
		// Budget gauge.
		"sag_engine_budget_remaining",
		"# TYPE sag_http_request_seconds histogram",
		"# TYPE sag_engine_budget_remaining gauge",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
	if t.Failed() {
		t.Logf("full exposition:\n%s", body)
	}

	// Warned split: server-level warned counter matches the status snapshot.
	_, body, _ = do(t, ts.URL, "GET", "/v1/status", "", nil)
	if got, st := scrape(t, srv)[core.MetricWarnedTotal+dflt], decode[Status](t, body); got != float64(st.Warned) {
		t.Fatalf("warned counter %g vs status %d", got, st.Warned)
	}
}

// TestConcurrencySmoke is the canary for the middleware's lock discipline:
// parallel goroutines hammer /v1/access, /v1/status, and /v1/metrics while
// the test asserts the cycle invariants — the budget each goroutine
// observes is monotone non-increasing, and the final counters are
// consistent with the traffic sent.
func TestConcurrencySmoke(t *testing.T) {
	_, ts, bgE, bgP := testServer(t)
	const (
		writers = 6
		readers = 4
		iters   = 30
	)
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			last := 51.0 // above the initial budget
			for i := 0; i < iters; i++ {
				_, body, _ := do(t, ts.URL, "POST", "/v1/access", "", AccessRequest{EmployeeID: bgE, PatientID: bgP})
				var resp AccessResponse
				if err := json.Unmarshal([]byte(body), &resp); err != nil || resp.RemainingBudget > last {
					t.Errorf("access answered %q (%v) after a remaining budget of %g: budget grew within a cycle", body, err, last)
					return
				}
				last = resp.RemainingBudget
			}
		}()
	}
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			lastBudget := 51.0
			for i := 0; i < iters; i++ {
				_, body, _ := do(t, ts.URL, "GET", "/v1/status", "", nil)
				var st Status
				if err := json.Unmarshal([]byte(body), &st); err != nil || st.RemainingBudget > lastBudget {
					t.Errorf("status answered %q (%v) after a remaining budget of %g: status budget grew", body, err, lastBudget)
					return
				}
				lastBudget = st.RemainingBudget
				if st.Warned > st.Alerts || st.Alerts > st.Accesses {
					t.Errorf("inconsistent counters: %+v", st)
					return
				}
				if code, _, _ := do(t, ts.URL, "GET", "/v1/metrics", "", nil); code != http.StatusOK {
					t.Errorf("metrics status %d", code)
					return
				}
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	_, body, _ := do(t, ts.URL, "GET", "/v1/status", "", nil)
	if st := decode[Status](t, body); st.Accesses != writers*iters || st.Alerts != writers*iters {
		t.Fatalf("lost updates: %+v, want %d accesses", st, writers*iters)
	}

	// Metrics agree with the status snapshot after the dust settles.
	_, metrics, _ := do(t, ts.URL, "GET", "/v1/metrics", "", nil)
	want := fmt.Sprintf(`sag_server_accesses_total{tenant="default"} %d`, writers*iters)
	if !strings.Contains(metrics, want) {
		t.Fatalf("metrics missing %q", want)
	}
}
