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

	"github.com/auditgames/sag/internal/shard"
)

// postTenant is post with the X-SAG-Tenant header set.
func postTenant(t *testing.T, ts *httptest.Server, tenant, path string, body any, out any) int {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(body); err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, ts.URL+path, &buf)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if tenant != "" {
		req.Header.Set(TenantHeader, tenant)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("%s: decoding response: %v", path, err)
		}
	}
	return resp.StatusCode
}

// TestTenantRouting: the header wins over the body field, the body field
// wins over the default, and each addressing form reaches its own engine.
func TestTenantRouting(t *testing.T) {
	srv, ts, bgE, bgP := fixture(t)

	// Body field creates and routes.
	if code := post(t, ts, "/v1/access", AccessRequest{EmployeeID: bgE, PatientID: bgP, Tenant: "body-tenant"}, nil); code != http.StatusOK {
		t.Fatalf("body-routed access status %d", code)
	}
	// Header wins over a conflicting body field.
	if code := postTenant(t, ts, "header-tenant", "/v1/access",
		AccessRequest{EmployeeID: bgE, PatientID: bgP, Tenant: "body-tenant"}, nil); code != http.StatusOK {
		t.Fatalf("header-routed access status %d", code)
	}
	var st Status
	if code := get(t, ts, "/v1/status?tenant=header-tenant", &st); code != http.StatusOK || st.Accesses != 1 {
		t.Fatalf("header tenant status code %d, %+v (header must win over body)", code, st)
	}
	if get(t, ts, "/v1/status?tenant=body-tenant", &st); st.Accesses != 1 {
		t.Fatalf("body tenant saw %d accesses, want 1", st.Accesses)
	}
	// No tenant anywhere routes to the default.
	if get(t, ts, "/v1/status", &st); st.Tenant != DefaultTenantID || st.Accesses != 0 {
		t.Fatalf("default tenant status %+v", st)
	}
	if st.ActiveTenants != 3 {
		t.Fatalf("ActiveTenants = %d, want 3", st.ActiveTenants)
	}
	if got := srv.Tenants(); len(got) != 3 || got[0] != "body-tenant" || got[1] != DefaultTenantID || got[2] != "header-tenant" {
		t.Fatalf("Tenants() = %v", got)
	}
}

// TestTenantErrorPaths: malformed IDs answer 400, endpoints that must not
// create answer 404 for unknown tenants, and the cap answers 429.
func TestTenantErrorPaths(t *testing.T) {
	world, ts, bgE, bgP := fixtureTenants(t, 3) // default + 2 more
	_ = world

	if code := postTenant(t, ts, "bad tenant!", "/v1/access", AccessRequest{EmployeeID: bgE, PatientID: bgP}, nil); code != http.StatusBadRequest {
		t.Fatalf("invalid tenant ID: status %d, want 400", code)
	}
	if code := get(t, ts, "/v1/status?tenant=ghost", nil); code != http.StatusNotFound {
		t.Fatalf("status for unknown tenant: %d, want 404", code)
	}
	var e apiError
	if code := postTenant(t, ts, "ghost", "/v1/cycle/close", struct{}{}, &e); code != http.StatusNotFound || e.Error == "" {
		t.Fatalf("close for unknown tenant: %d %q, want 404 with error body", code, e.Error)
	}
	// Fill the cap: default is resident, two more fit, the third hits 429.
	for _, id := range []string{"t1", "t2"} {
		if code := postTenant(t, ts, id, "/v1/access", AccessRequest{EmployeeID: bgE, PatientID: bgP}, nil); code != http.StatusOK {
			t.Fatalf("tenant %s: status %d", id, code)
		}
	}
	e = apiError{}
	if code := postTenant(t, ts, "t3", "/v1/access", AccessRequest{EmployeeID: bgE, PatientID: bgP}, &e); code != http.StatusTooManyRequests || e.Error == "" {
		t.Fatalf("over-cap tenant: %d %q, want 429 with error body", code, e.Error)
	}
	// Existing tenants keep serving at the cap.
	if code := postTenant(t, ts, "t1", "/v1/access", AccessRequest{EmployeeID: bgE, PatientID: bgP}, nil); code != http.StatusOK {
		t.Fatalf("resident tenant after cap: status %d", code)
	}
}

// fixtureTenants is fixture(t) with a tenant cap.
func fixtureTenants(t *testing.T, maxTenants int) (*Server, *httptest.Server, int, int) {
	t.Helper()
	return fixtureWith(t, func(cfg *Config) {
		cfg.MaxTenants = maxTenants
	})
}

// TestNoCrossTenantBudgetSharing: budget chains are independent — a new
// cycle with a different budget on tenant b must not bleed into the default
// tenant's budget or vice versa.
func TestNoCrossTenantBudgetSharing(t *testing.T) {
	_, ts, bgE, bgP := fixtureTenants(t, 8)
	for i := 0; i < 3; i++ {
		if code := post(t, ts, "/v1/access", AccessRequest{EmployeeID: bgE, PatientID: bgP}, nil); code != http.StatusOK {
			t.Fatalf("default tenant access %d: status %d", i, code)
		}
	}
	if code := postTenant(t, ts, "b", "/v1/access", AccessRequest{EmployeeID: bgE, PatientID: bgP}, nil); code != http.StatusOK {
		t.Fatalf("tenant b access: status %d", code)
	}
	if code := post(t, ts, "/v1/cycle/new", NewCycleRequest{Budget: 10, Tenant: "b"}, nil); code != http.StatusOK {
		t.Fatalf("tenant b new cycle: status %d", code)
	}
	var ra, rb Status
	get(t, ts, "/v1/status", &ra)
	get(t, ts, "/v1/status?tenant=b", &rb)
	if rb.Budget != 10 || rb.RemainingBudget != 10 {
		t.Fatalf("tenant b budget %+v, want a fresh 10", rb)
	}
	if ra.Budget != 50 {
		t.Fatalf("tenant a budget %+v was disturbed by b's cycle", ra)
	}
}

// TestTenantIsolationUnderConcurrency storms four tenants with different
// budgets concurrently and asserts that no update is lost, each tenant's
// budget chain moves independently, and no tenant ever observes another
// tenant's budget level.
func TestTenantIsolationUnderConcurrency(t *testing.T) {
	_, ts, bgE, bgP := fixtureTenants(t, 8)
	tenants := []string{"h1", "h2", "h3", "h4"}
	budgets := map[string]float64{"h1": 40, "h2": 30, "h3": 20, "h4": 12}
	for id, b := range budgets {
		if code := post(t, ts, "/v1/cycle/new", NewCycleRequest{Budget: b, Tenant: id}, nil); code != http.StatusOK {
			t.Fatalf("tenant %s new cycle: status %d", id, code)
		}
	}

	const perTenant = 12
	errs := make(chan error, len(tenants))
	var wg sync.WaitGroup
	for _, id := range tenants {
		wg.Add(1)
		go func(id string) {
			defer wg.Done()
			initial := budgets[id]
			for i := 0; i < perTenant; i++ {
				var body bytes.Buffer
				_ = json.NewEncoder(&body).Encode(AccessRequest{EmployeeID: bgE, PatientID: bgP})
				req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/access", &body)
				if err != nil {
					errs <- err
					return
				}
				req.Header.Set(TenantHeader, id)
				r, err := http.DefaultClient.Do(req)
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
				if resp.RemainingBudget > initial {
					errs <- fmt.Errorf("tenant %s observed budget %g above its own initial %g: cross-tenant state", id, resp.RemainingBudget, initial)
					return
				}
			}
			errs <- nil
		}(id)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}

	for _, id := range tenants {
		var st Status
		get(t, ts, "/v1/status?tenant="+id, &st)
		if st.Accesses != perTenant || st.Alerts != perTenant {
			t.Fatalf("tenant %s lost updates: %+v", id, st)
		}
		if st.Budget != budgets[id] {
			t.Fatalf("tenant %s initial budget drifted: %+v", id, st)
		}
	}
}

// TestTenantMetricsLabels: the exposition carries per-tenant series for
// both the server counters and the engine pipeline, plus the shard gauges.
func TestTenantMetricsLabels(t *testing.T) {
	_, ts, bgE, bgP := fixtureTenants(t, 8)
	for _, id := range []string{"", "x"} { // default + one named tenant
		if code := postTenant(t, ts, id, "/v1/access", AccessRequest{EmployeeID: bgE, PatientID: bgP}, nil); code != http.StatusOK {
			t.Fatalf("tenant %q access: status %d", id, code)
		}
	}
	resp, err := http.Get(ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	body := string(raw)
	for _, want := range []string{
		`sag_server_accesses_total{tenant="default"} 1`,
		`sag_server_accesses_total{tenant="x"} 1`,
		`sag_engine_decisions_total{policy="OSSP",tenant="default"} 1`,
		`sag_engine_decisions_total{policy="OSSP",tenant="x"} 1`,
		"sag_shard_tenants_active 2",
		"sag_shard_tenants_created_total 2",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
	if t.Failed() {
		t.Logf("full exposition:\n%s", body)
	}
}

// TestCycleSummariesAndDrain: per-tenant summaries come back keyed by ID,
// and oversized bodies are rejected with 413 before touching any tenant.
func TestCycleSummariesAndDrain(t *testing.T) {
	srv, ts, bgE, bgP := fixtureTenants(t, 8)
	for _, id := range []string{"", "y"} {
		for i := 0; i < 2; i++ {
			if code := postTenant(t, ts, id, "/v1/access", AccessRequest{EmployeeID: bgE, PatientID: bgP}, nil); code != http.StatusOK {
				t.Fatalf("tenant %q access: status %d", id, code)
			}
		}
	}
	sums := srv.CycleSummaries()
	if len(sums) != 2 {
		t.Fatalf("CycleSummaries has %d tenants, want 2: %v", len(sums), sums)
	}
	for _, id := range []string{DefaultTenantID, "y"} {
		if sums[id].Alerts != 2 {
			t.Fatalf("tenant %s summary %+v, want 2 alerts", id, sums[id])
		}
	}

	// Oversized body: rejected with a JSON 413, no tenant touched. The body
	// must be syntactically plausible past the cap, or the decoder answers
	// 400 for the malformed prefix before the size limit trips.
	huge := append([]byte(`{"employee_id":1,"patient_id":2,"tenant":"`),
		bytes.Repeat([]byte("a"), defaultMaxBodyBytes+1)...)
	resp, err := http.Post(ts.URL+"/v1/access", "application/json", bytes.NewReader(huge))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: status %d, want 413", resp.StatusCode)
	}
	var e apiError
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil || e.Error == "" {
		t.Fatalf("oversized-body error not JSON: %v %q", err, e.Error)
	}
}

// TestTenantsAndSeedDistinctness: Tenants lists the resident tenants sorted,
// and distinct tenants draw distinct RNG streams (their seeds fold in
// shard.Seed).
func TestTenantsAndSeedDistinctness(t *testing.T) {
	srv, _, _, _ := fixtureTenants(t, 8)
	if _, _, err := srv.router.GetOrCreate("pre-1"); err != nil {
		t.Fatal(err)
	}
	got := srv.Tenants()
	if len(got) != 2 || got[0] != DefaultTenantID || got[1] != "pre-1" {
		t.Fatalf("Tenants() = %v", got)
	}
	if shard.Seed("pre-1") == shard.Seed("pre-2") {
		t.Fatal("tenant seeds collide")
	}
}
