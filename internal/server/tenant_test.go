package server

import (
	"encoding/json"
	"net/http"
	"strings"
	"sync"
	"testing"

	"github.com/auditgames/sag/internal/shard"
)

// TestTenantRouting: the header wins over the body field, the body field
// wins over the default, and each addressing form reaches its own engine.
func TestTenantRouting(t *testing.T) {
	srv, ts, bgE, bgP := testServer(t)

	// Body field creates and routes.
	if code, _, _ := do(t, ts.URL, "POST", "/v1/access", "", AccessRequest{EmployeeID: bgE, PatientID: bgP, Tenant: "body-tenant"}); code != http.StatusOK {
		t.Fatalf("body-routed access status %d", code)
	}
	// Header wins over a conflicting body field.
	if code, _, _ := do(t, ts.URL, "POST", "/v1/access", "header-tenant", AccessRequest{EmployeeID: bgE, PatientID: bgP, Tenant: "body-tenant"}); code != http.StatusOK {
		t.Fatalf("header-routed access status %d", code)
	}
	if code, body, _ := do(t, ts.URL, "GET", "/v1/status?tenant=header-tenant", "", nil); code != http.StatusOK || decode[Status](t, body).Accesses != 1 {
		t.Fatalf("header tenant status %d %s (header must win over body)", code, body)
	}
	if _, body, _ := do(t, ts.URL, "GET", "/v1/status?tenant=body-tenant", "", nil); decode[Status](t, body).Accesses != 1 {
		t.Fatalf("body tenant status %s, want 1 access", body)
	}
	// No tenant anywhere routes to the default.
	_, body, _ := do(t, ts.URL, "GET", "/v1/status", "", nil)
	st := decode[Status](t, body)
	if st.Tenant != DefaultTenantID || st.Accesses != 0 {
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
	_, ts, bgE, bgP := testServer(t, func(cfg *Config) { cfg.MaxTenants = 3 }) // default + 2 more

	if code, _, _ := do(t, ts.URL, "POST", "/v1/access", "bad tenant!", AccessRequest{EmployeeID: bgE, PatientID: bgP}); code != http.StatusBadRequest {
		t.Fatalf("invalid tenant ID: status %d, want 400", code)
	}
	if code, _, _ := do(t, ts.URL, "GET", "/v1/status?tenant=ghost", "", nil); code != http.StatusNotFound {
		t.Fatalf("status for unknown tenant: %d, want 404", code)
	}
	if code, body, _ := do(t, ts.URL, "POST", "/v1/cycle/close", "ghost", struct{}{}); code != http.StatusNotFound || decode[apiError](t, body).Error == "" {
		t.Fatalf("close for unknown tenant: %d %s, want 404 with error body", code, body)
	}
	// Fill the cap: default is resident, two more fit, the third hits 429.
	for _, id := range []string{"t1", "t2"} {
		if code, _, _ := do(t, ts.URL, "POST", "/v1/access", id, AccessRequest{EmployeeID: bgE, PatientID: bgP}); code != http.StatusOK {
			t.Fatalf("tenant %s: status %d", id, code)
		}
	}
	if code, body, _ := do(t, ts.URL, "POST", "/v1/access", "t3", AccessRequest{EmployeeID: bgE, PatientID: bgP}); code != http.StatusTooManyRequests || decode[apiError](t, body).Error == "" {
		t.Fatalf("over-cap tenant: %d %s, want 429 with error body", code, body)
	}
	// Existing tenants keep serving at the cap.
	if code, _, _ := do(t, ts.URL, "POST", "/v1/access", "t1", AccessRequest{EmployeeID: bgE, PatientID: bgP}); code != http.StatusOK {
		t.Fatalf("resident tenant after cap: status %d", code)
	}
}

// TestNoCrossTenantBudgetSharing: budget chains are independent — a new
// cycle with a different budget on tenant b must not bleed into the default
// tenant's budget or vice versa.
func TestNoCrossTenantBudgetSharing(t *testing.T) {
	_, ts, bgE, bgP := testServer(t, func(cfg *Config) { cfg.MaxTenants = 8 })
	for i := 0; i < 3; i++ {
		if code, _, _ := do(t, ts.URL, "POST", "/v1/access", "", AccessRequest{EmployeeID: bgE, PatientID: bgP}); code != http.StatusOK {
			t.Fatalf("default tenant access %d: status %d", i, code)
		}
	}
	if code, _, _ := do(t, ts.URL, "POST", "/v1/access", "b", AccessRequest{EmployeeID: bgE, PatientID: bgP}); code != http.StatusOK {
		t.Fatalf("tenant b access: status %d", code)
	}
	if code, _, _ := do(t, ts.URL, "POST", "/v1/cycle/new", "", NewCycleRequest{Budget: 10, Tenant: "b"}); code != http.StatusOK {
		t.Fatalf("tenant b new cycle: status %d", code)
	}
	_, body, _ := do(t, ts.URL, "GET", "/v1/status", "", nil)
	ra := decode[Status](t, body)
	_, body, _ = do(t, ts.URL, "GET", "/v1/status?tenant=b", "", nil)
	if rb := decode[Status](t, body); rb.Budget != 10 || rb.RemainingBudget != 10 {
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
	_, ts, bgE, bgP := testServer(t, func(cfg *Config) { cfg.MaxTenants = 8 })
	tenants := []string{"h1", "h2", "h3", "h4"}
	budgets := map[string]float64{"h1": 40, "h2": 30, "h3": 20, "h4": 12}
	for id, b := range budgets {
		if code, _, _ := do(t, ts.URL, "POST", "/v1/cycle/new", "", NewCycleRequest{Budget: b, Tenant: id}); code != http.StatusOK {
			t.Fatalf("tenant %s new cycle: status %d", id, code)
		}
	}

	const perTenant = 12
	var wg sync.WaitGroup
	for _, id := range tenants {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perTenant; i++ {
				_, body, _ := do(t, ts.URL, "POST", "/v1/access", id, AccessRequest{EmployeeID: bgE, PatientID: bgP})
				var resp AccessResponse
				if err := json.Unmarshal([]byte(body), &resp); err != nil || resp.RemainingBudget > budgets[id] {
					t.Errorf("tenant %s answered %q (%v): a budget above its own initial %g is cross-tenant state", id, body, err, budgets[id])
					return
				}
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	for _, id := range tenants {
		_, body, _ := do(t, ts.URL, "GET", "/v1/status?tenant="+id, "", nil)
		st := decode[Status](t, body)
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
	_, ts, bgE, bgP := testServer(t, func(cfg *Config) { cfg.MaxTenants = 8 })
	for _, id := range []string{"", "x"} { // default + one named tenant
		if code, _, _ := do(t, ts.URL, "POST", "/v1/access", id, AccessRequest{EmployeeID: bgE, PatientID: bgP}); code != http.StatusOK {
			t.Fatalf("tenant %q access: status %d", id, code)
		}
	}
	_, body, _ := do(t, ts.URL, "GET", "/v1/metrics", "", nil)
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
	srv, ts, bgE, bgP := testServer(t, func(cfg *Config) { cfg.MaxTenants = 8 })
	for _, id := range []string{"", "y"} {
		for i := 0; i < 2; i++ {
			if code, _, _ := do(t, ts.URL, "POST", "/v1/access", id, AccessRequest{EmployeeID: bgE, PatientID: bgP}); code != http.StatusOK {
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
	huge := `{"employee_id":1,"patient_id":2,"tenant":"` + strings.Repeat("a", defaultMaxBodyBytes+1)
	code, body, _ := do(t, ts.URL, "POST", "/v1/access", "", huge)
	if code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: status %d, want 413", code)
	}
	if e := decode[apiError](t, body); e.Error == "" {
		t.Fatalf("oversized-body error has no message: %s", body)
	}
}

// TestTenantsAndSeedDistinctness: Tenants lists the resident tenants sorted,
// and distinct tenants draw distinct RNG streams (their seeds fold in
// shard.Seed).
func TestTenantsAndSeedDistinctness(t *testing.T) {
	srv, _, _, _ := testServer(t, func(cfg *Config) { cfg.MaxTenants = 8 })
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
