package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"github.com/auditgames/sag/internal/alerts"
	"github.com/auditgames/sag/internal/core"
	"github.com/auditgames/sag/internal/emr"
	"github.com/auditgames/sag/internal/game"
	"github.com/auditgames/sag/internal/payoff"
)

// fixture builds a server over a small world with planted pairs, plus the
// IDs of one planted same-last-name (type 1) pair for deterministic alert
// traffic.
func fixture(t *testing.T) (*Server, *httptest.Server, int, int) {
	t.Helper()
	return fixtureWith(t, nil)
}

func post(t *testing.T, ts *httptest.Server, path string, body any, out any) int {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(body); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+path, "application/json", &buf)
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

func get(t *testing.T, ts *httptest.Server, path string, out any) int {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode
}

func TestBenignAccessPassesSilently(t *testing.T) {
	_, ts, _, _ := fixture(t)
	var resp AccessResponse
	code := post(t, ts, "/v1/access", AccessRequest{EmployeeID: 0, PatientID: 0}, &resp)
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if resp.Alert || resp.Warn {
		t.Fatalf("benign access should pass silently: %+v", resp)
	}
	if resp.RemainingBudget != 50 {
		t.Fatalf("benign access must not spend budget: %+v", resp)
	}
}

func TestSuspiciousAccessTriggersGame(t *testing.T) {
	_, ts, bgE, bgP := fixture(t)
	warned := 0
	for i := 0; i < 50; i++ {
		var resp AccessResponse
		code := post(t, ts, "/v1/access", AccessRequest{EmployeeID: bgE, PatientID: bgP}, &resp)
		if code != http.StatusOK {
			t.Fatalf("status %d", code)
		}
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
	var st Status
	if code := get(t, ts, "/v1/status", &st); code != http.StatusOK {
		t.Fatalf("status code %d", code)
	}
	if st.Accesses != 50 || st.Alerts != 50 || st.Warned != warned {
		t.Fatalf("status counters %+v", st)
	}
	if st.RemainingBudget >= 50 {
		t.Fatal("suspicious traffic should consume budget")
	}
}

func TestQuitFlagsUser(t *testing.T) {
	_, ts, bgE, bgP := fixture(t)
	if code := post(t, ts, "/v1/quit", QuitRequest{EmployeeID: bgE}, nil); code != http.StatusOK {
		t.Fatalf("quit status %d", code)
	}
	var resp AccessResponse
	post(t, ts, "/v1/access", AccessRequest{EmployeeID: bgE, PatientID: bgP}, &resp)
	if !resp.Flagged || !resp.Warn {
		t.Fatalf("flagged user should always be warned: %+v", resp)
	}
	var st Status
	get(t, ts, "/v1/status", &st)
	if st.FlaggedUsers != 1 || st.Quits != 1 {
		t.Fatalf("status %+v", st)
	}
	// Unknown employee is rejected.
	if code := post(t, ts, "/v1/quit", QuitRequest{EmployeeID: 1 << 20}, nil); code != http.StatusBadRequest {
		t.Fatalf("unknown employee quit status %d", code)
	}
}

func TestCycleCloseAndNew(t *testing.T) {
	_, ts, bgE, bgP := fixture(t)
	for i := 0; i < 20; i++ {
		post(t, ts, "/v1/access", AccessRequest{EmployeeID: bgE, PatientID: bgP}, nil)
	}
	var closed CloseResponse
	if code := post(t, ts, "/v1/cycle/close", struct{}{}, &closed); code != http.StatusOK {
		t.Fatalf("close status %d", code)
	}
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

	if code := post(t, ts, "/v1/cycle/new", NewCycleRequest{Budget: 30}, nil); code != http.StatusOK {
		t.Fatalf("new cycle status %d", code)
	}
	var st Status
	get(t, ts, "/v1/status", &st)
	if st.Budget != 30 || st.RemainingBudget != 30 || st.Accesses != 0 {
		t.Fatalf("post-reset status %+v", st)
	}
	if code := post(t, ts, "/v1/cycle/new", NewCycleRequest{Budget: -5}, nil); code != http.StatusBadRequest {
		t.Fatalf("negative budget status %d", code)
	}
}

func TestBadRequests(t *testing.T) {
	_, ts, _, _ := fixture(t)
	resp, err := http.Post(ts.URL+"/v1/access", "application/json", bytes.NewBufferString("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("garbage body status %d", resp.StatusCode)
	}
	var out AccessResponse
	if code := post(t, ts, "/v1/access", AccessRequest{EmployeeID: 1 << 20, PatientID: 0}, &out); code != http.StatusBadRequest {
		t.Fatalf("out-of-range employee status %d", code)
	}
	// Wrong method.
	r, err := http.Get(ts.URL + "/v1/access")
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET on POST route status %d", r.StatusCode)
	}
}

func TestNewValidation(t *testing.T) {
	world, _ := emr.NewWorld(emr.WorldConfig{Seed: 1, Employees: 2, Patients: 2, Departments: 1})
	inst, _ := game.NewInstance([]payoff.Payoff{payoff.Table2()[1]}, []float64{1})
	est := core.EstimatorFunc(func(time.Duration) ([]float64, error) { return []float64{10}, nil })
	cases := []struct {
		name string
		cfg  Config
	}{
		{"nil world", Config{Taxonomy: alerts.NewTable1Taxonomy(), Instance: inst, Estimator: est, TypeIDs: []int{1}}},
		{"nil taxonomy", Config{World: world, Instance: inst, Estimator: est, TypeIDs: []int{1}}},
		{"nil instance", Config{World: world, Taxonomy: alerts.NewTable1Taxonomy(), Estimator: est, TypeIDs: []int{1}}},
		{"type count mismatch", Config{World: world, Taxonomy: alerts.NewTable1Taxonomy(), Instance: inst, Estimator: est, TypeIDs: []int{1, 2}}},
		{"duplicate ids", Config{World: world, Taxonomy: alerts.NewTable1Taxonomy(), Instance: inst, Estimator: est, TypeIDs: []int{1, 1}}},
	}
	for _, c := range cases {
		if c.name == "duplicate ids" {
			// needs a 2-type instance for the duplicate check to be reached
			c.cfg.Instance, _ = game.NewInstance(
				[]payoff.Payoff{payoff.Table2()[1], payoff.Table2()[2]},
				game.UniformCost(2, 1))
		}
		if _, err := New(c.cfg); err == nil {
			t.Errorf("%s: want error", c.name)
		}
	}
}

// TestConcurrentAccessesKeepInvariants hammers one tenant's access path
// from 8 goroutines and checks that the shared counters and the budget
// survive: no lost updates, no negative budget.
func TestConcurrentAccessesKeepInvariants(t *testing.T) {
	_, ts, bgE, bgP := fixture(t)
	done := make(chan error, 8)
	for g := 0; g < 8; g++ {
		go func() {
			for i := 0; i < 25; i++ {
				var resp AccessResponse
				body, _ := json.Marshal(AccessRequest{EmployeeID: bgE, PatientID: bgP})
				r, err := http.Post(ts.URL+"/v1/access", "application/json", bytes.NewReader(body))
				if err != nil {
					done <- err
					return
				}
				err = json.NewDecoder(r.Body).Decode(&resp)
				r.Body.Close()
				if err != nil {
					done <- err
					return
				}
				if resp.RemainingBudget < 0 {
					done <- fmt.Errorf("negative budget %g", resp.RemainingBudget)
					return
				}
			}
			done <- nil
		}()
	}
	for g := 0; g < 8; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	var st Status
	get(t, ts, "/v1/status", &st)
	if st.Accesses != 200 || st.Alerts != 200 {
		t.Fatalf("lost updates under concurrency: %+v", st)
	}
}
