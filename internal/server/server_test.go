package server

import (
	"encoding/json"
	"net/http"
	"sync"
	"testing"
)

func TestBenignAccessPassesSilently(t *testing.T) {
	_, ts, _, _ := testServer(t)
	code, body, _ := do(t, ts.URL, "POST", "/v1/access", "", AccessRequest{EmployeeID: 0, PatientID: 0})
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	resp := decode[AccessResponse](t, body)
	if resp.Alert || resp.Warn {
		t.Fatalf("benign access should pass silently: %+v", resp)
	}
	if resp.RemainingBudget != 50 {
		t.Fatalf("benign access must not spend budget: %+v", resp)
	}
}

func TestSuspiciousAccessTriggersGame(t *testing.T) {
	_, ts, bgE, bgP := testServer(t)
	warned := 0
	for i := 0; i < 50; i++ {
		code, body, _ := do(t, ts.URL, "POST", "/v1/access", "", AccessRequest{EmployeeID: bgE, PatientID: bgP})
		if code != http.StatusOK {
			t.Fatalf("status %d", code)
		}
		resp := decode[AccessResponse](t, body)
		if !resp.Alert || resp.TypeID != 1 {
			t.Fatalf("planted same-last-name access should alert type 1: %+v", resp)
		}
		if resp.Warn {
			warned++
		}
		if resp.RemainingBudget > 50 {
			t.Fatalf("budget grew: %+v", resp)
		}
	}
	if warned == 0 {
		t.Fatal("no warnings over 50 suspicious accesses is implausible")
	}
	code, body, _ := do(t, ts.URL, "GET", "/v1/status", "", nil)
	if code != http.StatusOK {
		t.Fatalf("status code %d", code)
	}
	st := decode[Status](t, body)
	if st.Accesses != 50 || st.Alerts != 50 || st.Warned != warned {
		t.Fatalf("status counters %+v", st)
	}
	if st.RemainingBudget >= 50 {
		t.Fatal("suspicious traffic should consume budget")
	}
}

func TestQuitFlagsUser(t *testing.T) {
	_, ts, bgE, bgP := testServer(t)
	if code, _, _ := do(t, ts.URL, "POST", "/v1/quit", "", QuitRequest{EmployeeID: bgE}); code != http.StatusOK {
		t.Fatalf("quit status %d", code)
	}
	_, body, _ := do(t, ts.URL, "POST", "/v1/access", "", AccessRequest{EmployeeID: bgE, PatientID: bgP})
	if resp := decode[AccessResponse](t, body); !resp.Flagged || !resp.Warn {
		t.Fatalf("flagged user should always be warned: %+v", resp)
	}
	_, body, _ = do(t, ts.URL, "GET", "/v1/status", "", nil)
	if st := decode[Status](t, body); st.FlaggedUsers != 1 || st.Quits != 1 {
		t.Fatalf("status %+v", st)
	}
	// Unknown employee is rejected.
	if code, _, _ := do(t, ts.URL, "POST", "/v1/quit", "", QuitRequest{EmployeeID: 1 << 20}); code != http.StatusBadRequest {
		t.Fatalf("unknown employee quit status %d", code)
	}
}

func TestCycleCloseAndNew(t *testing.T) {
	_, ts, bgE, bgP := testServer(t)
	for i := 0; i < 20; i++ {
		do(t, ts.URL, "POST", "/v1/access", "", AccessRequest{EmployeeID: bgE, PatientID: bgP})
	}
	code, body, _ := do(t, ts.URL, "POST", "/v1/cycle/close", "", struct{}{})
	if code != http.StatusOK {
		t.Fatalf("close status %d", code)
	}
	closed := decode[CloseResponse](t, body)
	if len(closed.Audits) != 20 {
		t.Fatalf("audit plan covers %d alerts, want 20", len(closed.Audits))
	}
	audited := 0
	for _, a := range closed.Audits {
		if a.Audited {
			audited++
			if a.Cost <= 0 {
				t.Fatal("audited outcome must carry its cost")
			}
		}
	}
	if float64(audited) != closed.TotalCost {
		t.Fatalf("total cost %g vs %d audited at cost 1", closed.TotalCost, audited)
	}

	if code, _, _ := do(t, ts.URL, "POST", "/v1/cycle/new", "", NewCycleRequest{Budget: 30}); code != http.StatusOK {
		t.Fatalf("new cycle status %d", code)
	}
	_, body, _ = do(t, ts.URL, "GET", "/v1/status", "", nil)
	if st := decode[Status](t, body); st.Budget != 30 || st.RemainingBudget != 30 || st.Accesses != 0 {
		t.Fatalf("post-reset status %+v", st)
	}
	if code, _, _ := do(t, ts.URL, "POST", "/v1/cycle/new", "", NewCycleRequest{Budget: -5}); code != http.StatusBadRequest {
		t.Fatalf("negative budget status %d", code)
	}
}

func TestBadRequests(t *testing.T) {
	_, ts, _, _ := testServer(t)
	if code, _, _ := do(t, ts.URL, "POST", "/v1/access", "", "{not json"); code != http.StatusBadRequest {
		t.Fatalf("garbage body status %d", code)
	}
	if code, _, _ := do(t, ts.URL, "POST", "/v1/access", "", AccessRequest{EmployeeID: 1 << 20, PatientID: 0}); code != http.StatusBadRequest {
		t.Fatalf("out-of-range employee status %d", code)
	}
	// Wrong method.
	if code, _, _ := do(t, ts.URL, "GET", "/v1/access", "", nil); code != http.StatusMethodNotAllowed {
		t.Fatalf("GET on POST route status %d", code)
	}
}

func TestNewValidation(t *testing.T) {
	cases := []struct {
		name string
		mod  func(*Config)
	}{
		{"nil world", func(cfg *Config) { cfg.World = nil }},
		{"nil taxonomy", func(cfg *Config) { cfg.Taxonomy = nil }},
		{"nil instance", func(cfg *Config) { cfg.Instance = nil }},
		{"type count mismatch", func(cfg *Config) { cfg.TypeIDs = []int{1, 2} }},
		{"duplicate ids", func(cfg *Config) { cfg.TypeIDs = []int{1, 1, 3, 4, 5, 6, 7} }},
	}
	for _, c := range cases {
		cfg, _, _ := testConfig(t, c.mod)
		if _, err := New(cfg); err == nil {
			t.Errorf("%s: want error", c.name)
		}
	}
}

// TestConcurrentAccessesKeepInvariants hammers one tenant's access path
// from 8 goroutines and checks that the shared counters and the budget
// survive: no lost updates, no negative budget.
func TestConcurrentAccessesKeepInvariants(t *testing.T) {
	_, ts, bgE, bgP := testServer(t)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				_, body, _ := do(t, ts.URL, "POST", "/v1/access", "", AccessRequest{EmployeeID: bgE, PatientID: bgP})
				var resp AccessResponse
				if err := json.Unmarshal([]byte(body), &resp); err != nil || resp.RemainingBudget < 0 {
					t.Errorf("access answered %q (%v): want a remaining budget of at least 0", body, err)
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
	if st := decode[Status](t, body); st.Accesses != 200 || st.Alerts != 200 {
		t.Fatalf("lost updates under concurrency: %+v", st)
	}
}
