package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/auditgames/sag/internal/alerts"
	"github.com/auditgames/sag/internal/core"
	"github.com/auditgames/sag/internal/emr"
	"github.com/auditgames/sag/internal/sim"
)

// fixtureSubset builds a server that only games taxonomy type 2, so the
// planted same-last-name (type 1) pair produces unmodeled-type alerts.
func fixtureSubset(t *testing.T) (*httptest.Server, int, int) {
	t.Helper()
	world, err := emr.NewWorld(emr.WorldConfig{Seed: 5, Employees: 30, Patients: 100, Departments: 4})
	if err != nil {
		t.Fatal(err)
	}
	bgE, bgP := world.NumEmployees(), world.NumPatients()
	if _, err := emr.NewGenerator(world, emr.GeneratorConfig{Seed: 5, PairsPerKind: 3, BackgroundPerDay: 1}); err != nil {
		t.Fatal(err)
	}
	inst, err := sim.Table1Instance([]int{2})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{
		World:    world,
		Taxonomy: alerts.NewTable1Taxonomy(),
		TypeIDs:  []int{2},
		Instance: inst,
		Budget:   50,
		Estimator: core.EstimatorFunc(func(time.Duration) ([]float64, error) {
			return []float64{29.02}, nil
		}),
		Seed:  1,
		Clock: func() time.Duration { return 9 * time.Hour },
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts, bgE, bgP
}

// TestCycleRolloverResetsFullStatus is the regression test for the stale
// `quits` counter: after traffic, a quit, and a cycle rollover, the full
// /v1/status snapshot must show every per-cycle counter reset, with the
// flagged-user set (deliberately) surviving.
func TestCycleRolloverResetsFullStatus(t *testing.T) {
	_, ts, bgE, bgP := fixture(t)
	for i := 0; i < 10; i++ {
		post(t, ts, "/v1/access", AccessRequest{EmployeeID: bgE, PatientID: bgP}, nil)
	}
	if code := post(t, ts, "/v1/quit", QuitRequest{EmployeeID: bgE}, nil); code != http.StatusOK {
		t.Fatalf("quit status %d", code)
	}
	if code := post(t, ts, "/v1/cycle/new", NewCycleRequest{Budget: 30}, nil); code != http.StatusOK {
		t.Fatalf("new cycle status %d", code)
	}
	var st Status
	if code := get(t, ts, "/v1/status", &st); code != http.StatusOK {
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
	if st != want {
		t.Fatalf("post-rollover status = %+v, want %+v", st, want)
	}
}

// TestHandlerErrorPaths covers every POST route's malformed-JSON branch and
// the domain error branches, asserting status codes and the JSON error
// shape.
func TestHandlerErrorPaths(t *testing.T) {
	_, ts, _, _ := fixture(t)
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
			resp, err := http.Post(ts.URL+c.path, "application/json", strings.NewReader(c.body))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != c.wantCode {
				t.Fatalf("status %d, want %d", resp.StatusCode, c.wantCode)
			}
			var e struct {
				Error string `json:"error"`
			}
			if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
				t.Fatalf("error body is not JSON: %v", err)
			}
			if e.Error == "" {
				t.Fatal("error body must carry a non-empty \"error\" field")
			}
		})
	}

	// /v1/cycle/close takes no body and ignores whatever is posted.
	resp, err := http.Post(ts.URL+"/v1/cycle/close", "application/json", strings.NewReader("{garbage"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cycle/close with garbage body: status %d, want 200 (body ignored)", resp.StatusCode)
	}
}

// TestUnmodeledTypePassthrough: alerts whose taxonomy type has no payoff
// structure are reported but never warned and never charged.
func TestUnmodeledTypePassthrough(t *testing.T) {
	ts, bgE, bgP := fixtureSubset(t)
	for i := 0; i < 5; i++ {
		var resp AccessResponse
		if code := post(t, ts, "/v1/access", AccessRequest{EmployeeID: bgE, PatientID: bgP}, &resp); code != http.StatusOK {
			t.Fatalf("status %d", code)
		}
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
	var st Status
	get(t, ts, "/v1/status", &st)
	if st.Accesses != 5 || st.Alerts != 5 || st.Warned != 0 {
		t.Fatalf("status %+v", st)
	}
}

// TestFlaggedQuitterAlwaysWarn: once an employee quits, every subsequent
// alerting access is warned and marked flagged, regardless of the game.
func TestFlaggedQuitterAlwaysWarn(t *testing.T) {
	_, ts, bgE, bgP := fixture(t)
	if code := post(t, ts, "/v1/quit", QuitRequest{EmployeeID: bgE}, nil); code != http.StatusOK {
		t.Fatalf("quit status %d", code)
	}
	for i := 0; i < 10; i++ {
		var resp AccessResponse
		if code := post(t, ts, "/v1/access", AccessRequest{EmployeeID: bgE, PatientID: bgP}, &resp); code != http.StatusOK {
			t.Fatalf("status %d", code)
		}
		if !resp.Warn || !resp.Flagged {
			t.Fatalf("flagged quitter must always be warned: %+v", resp)
		}
	}
	var st Status
	get(t, ts, "/v1/status", &st)
	if st.Warned != 10 || st.FlaggedUsers != 1 {
		t.Fatalf("status %+v", st)
	}
}

// TestMetricsEndpoint drives real traffic and asserts the acceptance
// criteria on /v1/metrics: Prometheus text format with request latency
// histograms, per-stage engine timings, simplex counters, and the
// remaining-budget gauge.
func TestMetricsEndpoint(t *testing.T) {
	srv, ts, bgE, bgP := fixture(t)
	reg := srv.Metrics()
	for i := 0; i < 10; i++ {
		post(t, ts, "/v1/access", AccessRequest{EmployeeID: bgE, PatientID: bgP}, nil)
	}
	post(t, ts, "/v1/quit", QuitRequest{EmployeeID: bgE}, nil)
	get(t, ts, "/v1/status", nil)

	resp, err := http.Get(ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("metrics content type %q", ct)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	body := string(raw)
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
	var st Status
	get(t, ts, "/v1/status", &st)
	if got := reg.Snapshot().Counters[core.MetricWarnedTotal+`{tenant="default"}`]; got != uint64(st.Warned) {
		t.Fatalf("warned counter %d vs status %d", got, st.Warned)
	}
}

// TestConcurrencySmoke is the canary for the middleware's lock discipline:
// parallel goroutines hammer /v1/access, /v1/status, and /v1/metrics while
// the test asserts the cycle invariants — the budget each goroutine
// observes is monotone non-increasing, and the final counters are
// consistent with the traffic sent.
func TestConcurrencySmoke(t *testing.T) {
	_, ts, bgE, bgP := fixture(t)
	const (
		writers = 6
		readers = 4
		iters   = 30
	)
	errs := make(chan error, writers+readers)
	var wg sync.WaitGroup

	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			last := 51.0 // above the initial budget
			for i := 0; i < iters; i++ {
				body, _ := json.Marshal(AccessRequest{EmployeeID: bgE, PatientID: bgP})
				r, err := http.Post(ts.URL+"/v1/access", "application/json", bytes.NewReader(body))
				if err != nil {
					errs <- err
					return
				}
				var resp AccessResponse
				err = json.NewDecoder(r.Body).Decode(&resp)
				r.Body.Close()
				if err != nil {
					errs <- err
					return
				}
				if resp.RemainingBudget > last {
					errs <- fmt.Errorf("budget grew within a cycle: %g -> %g", last, resp.RemainingBudget)
					return
				}
				last = resp.RemainingBudget
			}
			errs <- nil
		}()
	}
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			lastBudget := 51.0
			for i := 0; i < iters; i++ {
				r, err := http.Get(ts.URL + "/v1/status")
				if err != nil {
					errs <- err
					return
				}
				var st Status
				err = json.NewDecoder(r.Body).Decode(&st)
				r.Body.Close()
				if err != nil {
					errs <- err
					return
				}
				if st.RemainingBudget > lastBudget {
					errs <- fmt.Errorf("status budget grew: %g -> %g", lastBudget, st.RemainingBudget)
					return
				}
				lastBudget = st.RemainingBudget
				if st.Warned > st.Alerts || st.Alerts > st.Accesses {
					errs <- fmt.Errorf("inconsistent counters: %+v", st)
					return
				}
				m, err := http.Get(ts.URL + "/v1/metrics")
				if err != nil {
					errs <- err
					return
				}
				_, err = io.ReadAll(m.Body)
				m.Body.Close()
				if err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}

	var st Status
	get(t, ts, "/v1/status", &st)
	if st.Accesses != writers*iters || st.Alerts != writers*iters {
		t.Fatalf("lost updates: %+v, want %d accesses", st, writers*iters)
	}

	// Metrics agree with the status snapshot after the dust settles.
	resp, err := http.Get(ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf(`sag_server_accesses_total{tenant="default"} %d`, writers*iters)
	if !strings.Contains(string(raw), want) {
		t.Fatalf("metrics missing %q", want)
	}
}
