package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/auditgames/sag/internal/alerts"
	"github.com/auditgames/sag/internal/core"
	"github.com/auditgames/sag/internal/dist"
	"github.com/auditgames/sag/internal/emr"
	"github.com/auditgames/sag/internal/game"
	"github.com/auditgames/sag/internal/sim"
)

// fuzzServer builds one small multi-tenant server shared by every fuzz
// iteration: a tight tenant cap so the fuzzer exercises the 429 path, and a
// canned instant solver so iterations are microseconds, not LP solves.
func fuzzServer(f *testing.F) http.Handler {
	f.Helper()
	world, err := emr.NewWorld(emr.WorldConfig{Seed: 5, Employees: 30, Patients: 100, Departments: 4})
	if err != nil {
		f.Fatal(err)
	}
	inst, err := sim.Table1Instance(sim.AllTable1TypeIDs())
	if err != nil {
		f.Fatal(err)
	}
	srv, err := New(Config{
		World:    world,
		Taxonomy: alerts.NewTable1Taxonomy(),
		TypeIDs:  sim.AllTable1TypeIDs(),
		Instance: inst,
		Budget:   50,
		Estimator: core.EstimatorFunc(func(time.Duration) ([]float64, error) {
			return []float64{196.57, 29.02, 140.46, 10.84, 25.43, 15.14, 43.27}, nil
		}),
		Seed:       1,
		MaxTenants: 4,
		Clock:      func() time.Duration { return 9 * time.Hour },
		SSESolve: func(ctx context.Context, inst *game.Instance, budget float64, futures []dist.Poisson) (*game.Result, error) {
			return &game.Result{BestType: -1, Coverage: make([]float64, inst.NumTypes())}, nil
		},
	})
	if err != nil {
		f.Fatal(err)
	}
	return srv.Handler()
}

// fuzzRoundTrip drives one fuzzed request through the handler and asserts
// the two invariants every response must hold: the server never panics
// (a panic fails the fuzz run via the recovery middleware being bypassed
// in-process — ServeHTTP panics propagate to the test) and every response
// body is well-formed JSON with a sane status code.
func fuzzRoundTrip(t *testing.T, h http.Handler, method, path, tenant string, body []byte) {
	t.Helper()
	req := httptest.NewRequest(method, path, bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	// Header values with control bytes cannot arise from net/http's reader;
	// setting them via the map would fuzz the httptest plumbing, not the
	// server. Restrict the fuzzed header to printable bytes and let the
	// tenant validation see everything else via the body field.
	if tenant != "" && !strings.ContainsFunc(tenant, func(r rune) bool { return r < 0x20 || r == 0x7f }) {
		req.Header.Set(TenantHeader, tenant)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code < 200 || rec.Code > 599 {
		t.Fatalf("status %d outside valid range", rec.Code)
	}
	if !json.Valid(rec.Body.Bytes()) {
		t.Fatalf("status %d: response body is not JSON: %q", rec.Code, rec.Body.String())
	}
	if rec.Code >= 400 {
		var e apiError
		if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Error == "" {
			t.Fatalf("status %d: error response lacks an \"error\" field: %q", rec.Code, rec.Body.String())
		}
	}
}

// FuzzDecisionHandler fuzzes POST /v1/access across tenants: malformed
// JSON, out-of-range IDs, unknown and invalid tenants, oversized bodies.
func FuzzDecisionHandler(f *testing.F) {
	h := fuzzServer(f)
	f.Add("", []byte(`{"employee_id":30,"patient_id":100}`))
	f.Add("t1", []byte(`{"employee_id":0,"patient_id":0}`))
	f.Add("", []byte(`{"employee_id":30,"patient_id":100,"tenant":"t2"}`))
	f.Add("bad tenant!", []byte(`{}`))
	f.Add("t3", []byte(`{not json`))
	f.Add("", []byte(`{"employee_id":-5,"patient_id":1048576}`))
	f.Add("overflow-tenant-5", []byte(`{"employee_id":30,"patient_id":100}`)) // beyond MaxTenants
	f.Add("t1", bytes.Repeat([]byte(`{"employee_id":1},`), 512))
	f.Add("", append([]byte(`{"tenant":"`), bytes.Repeat([]byte("a"), 1<<21)...))
	f.Fuzz(func(t *testing.T, tenant string, body []byte) {
		fuzzRoundTrip(t, h, http.MethodPost, "/v1/access", tenant, body)
	})
}

// FuzzNewCycleHandler fuzzes POST /v1/cycle/new: NaN/Inf/negative budgets,
// junk bodies, tenant storms against the cap.
func FuzzNewCycleHandler(f *testing.F) {
	h := fuzzServer(f)
	f.Add("", []byte(`{"budget":40}`))
	f.Add("t1", []byte(`{"budget":-1}`))
	f.Add("", []byte(`{"budget":"lots"}`))
	f.Add("", []byte(`{"budget":1e308}`))
	f.Add("t2", []byte(`{"budget":40,"tenant":"t3"}`))
	f.Add("no/slash", []byte(`{"budget":40}`))
	f.Add("t4-over-cap", []byte(`{"budget":40}`))
	f.Add("", []byte(`null`))
	f.Add("", append([]byte(`{"tenant":"`), bytes.Repeat([]byte("b"), 1<<21)...))
	f.Fuzz(func(t *testing.T, tenant string, body []byte) {
		fuzzRoundTrip(t, h, http.MethodPost, "/v1/cycle/new", tenant, body)
	})
}

// FuzzQuitHandler fuzzes POST /v1/quit: out-of-range and non-integer
// employees (refused before a tenant can be created), repeats, tenant storms.
func FuzzQuitHandler(f *testing.F) {
	h := fuzzServer(f)
	f.Add("", []byte(`{"employee_id":3}`))
	f.Add("t1", []byte(`{"employee_id":3}`))
	f.Add("", []byte(`{"employee_id":-1}`))
	f.Add("ghost", []byte(`{"employee_id":1048576}`))
	f.Add("", []byte(`{"employee_id":"seven"}`))
	f.Add("", []byte(`{"employee_id":3,"tenant":"t2"}`))
	f.Add("bad tenant!", []byte(`{"employee_id":3}`))
	f.Add("t5-over-cap", []byte(`{"employee_id":0}`))
	f.Add("", []byte(`][`))
	f.Add("", append([]byte(`{"tenant":"`), bytes.Repeat([]byte("c"), 1<<21)...))
	f.Fuzz(func(t *testing.T, tenant string, body []byte) {
		fuzzRoundTrip(t, h, http.MethodPost, "/v1/quit", tenant, body)
	})
}

// FuzzCloseHandler fuzzes POST /v1/cycle/close, the one lenient route: junk
// bodies are tolerated, oversized ones are not, unknown tenants are 404, and
// the shared server is mostly already closed (409).
func FuzzCloseHandler(f *testing.F) {
	h := fuzzServer(f)
	f.Add("", []byte(``))
	f.Add("", []byte(`{}`))
	f.Add("", []byte(`{garbage`))
	f.Add("", []byte(`{"tenant":"t1"}`))
	f.Add("ghost", []byte(`{}`))
	f.Add("..", []byte(`null`))
	f.Add("bad tenant!", []byte(`{}`))
	f.Add("", append([]byte(`{"tenant":"`), bytes.Repeat([]byte("d"), 1<<21)...))
	f.Fuzz(func(t *testing.T, tenant string, body []byte) {
		fuzzRoundTrip(t, h, http.MethodPost, "/v1/cycle/close", tenant, body)
	})
}
