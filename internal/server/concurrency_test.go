package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/auditgames/sag/internal/alerts"
	"github.com/auditgames/sag/internal/core"
	"github.com/auditgames/sag/internal/dist"
	"github.com/auditgames/sag/internal/emr"
	"github.com/auditgames/sag/internal/game"
	"github.com/auditgames/sag/internal/sim"
	"github.com/auditgames/sag/internal/wal"
)

// gatedSolver is an SSESolveFunc wrapper that parks every solve until
// release is closed, signaling each entry on entered. It lets tests prove
// that two tenants' HTTP decisions are inside the solver at the same time.
type gatedSolver struct {
	entered chan struct{}
	release chan struct{}
	calls   atomic.Int32
}

func newGatedSolver() *gatedSolver {
	return &gatedSolver{
		entered: make(chan struct{}, 64),
		release: make(chan struct{}),
	}
}

func (b *gatedSolver) solve(ctx context.Context, inst *game.Instance, budget float64, futures []dist.Poisson) (*game.Result, error) {
	b.calls.Add(1)
	b.entered <- struct{}{}
	select {
	case <-b.release:
	case <-time.After(10 * time.Second):
		return nil, errors.New("gatedSolver: never released")
	}
	return game.SolveOnlineSSECtx(ctx, inst, budget, futures)
}

// fixtureWith builds the standard test server, letting the caller mutate the
// Config (inject a solver, cap the tenants) before construction. The
// returned IDs are the type-1 (same last name) planted pair; the type-2
// (coworker) pair is at (bgE+3, bgP+3) — PairsPerKind pairs are planted per
// kind, in kind order.
func fixtureWith(t *testing.T, mutate func(*Config)) (*Server, *httptest.Server, int, int) {
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
	cfg := Config{
		World:    world,
		Taxonomy: alerts.NewTable1Taxonomy(),
		TypeIDs:  sim.AllTable1TypeIDs(),
		Instance: inst,
		Budget:   50,
		Estimator: core.EstimatorFunc(func(time.Duration) ([]float64, error) {
			return []float64{196.57, 29.02, 140.46, 10.84, 25.43, 15.14, 43.27}, nil
		}),
		Seed:  1,
		Clock: func() time.Duration { return 9 * time.Hour },
	}
	if mutate != nil {
		mutate(&cfg)
	}
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts, bgE, bgP
}

// TestConcurrentAccessSolvesOverlap is the regression test against a
// box-wide lock: two slow /v1/access solves for different tenants must be
// inside the SSE solver simultaneously. One tenant's decisions are
// sequential by design (the engine decides under its budget lock); if
// anything shared between tenants were held across a decision, the second
// request could not reach the solver until the first returned, and this
// test would time out at the barrier.
func TestConcurrentAccessSolvesOverlap(t *testing.T) {
	bs := newGatedSolver()
	_, ts, bgE, bgP := fixtureWith(t, func(cfg *Config) { cfg.SSESolve = bs.solve })

	var wg sync.WaitGroup
	type result struct {
		resp AccessResponse
		code int
	}
	results := make(chan result, 2)
	for _, tenant := range []string{"icu", "oncology"} {
		wg.Add(1)
		go func(tenant string) {
			defer wg.Done()
			var resp AccessResponse
			code := post(t, ts, "/v1/access", AccessRequest{Tenant: tenant, EmployeeID: bgE, PatientID: bgP}, &resp)
			results <- result{resp, code}
		}(tenant)
	}
	for i := 0; i < 2; i++ {
		select {
		case <-bs.entered:
		case <-time.After(5 * time.Second):
			t.Fatal("second /v1/access never reached the solver: tenants are serialized on something shared")
		}
	}
	close(bs.release)
	wg.Wait()
	close(results)
	for r := range results {
		if r.code != http.StatusOK {
			t.Fatalf("access status %d", r.code)
		}
		if !r.resp.Alert {
			t.Fatalf("planted pair did not alert: %+v", r.resp)
		}
		if r.resp.Fallback != "" {
			t.Fatalf("decision degraded (%s): the solver barrier timed out", r.resp.Fallback)
		}
	}
}

// TestCloseCycleGuard: the cycle can be closed once. A second close — which
// would re-sample the audit plan and re-charge its total — answers 409, as
// does /v1/access, until /v1/cycle/new reopens the server.
func TestCloseCycleGuard(t *testing.T) {
	_, ts, bgE, bgP := fixture(t)
	for i := 0; i < 5; i++ {
		if code := post(t, ts, "/v1/access", AccessRequest{EmployeeID: bgE, PatientID: bgP}, nil); code != http.StatusOK {
			t.Fatalf("access status %d", code)
		}
	}
	var first CloseResponse
	if code := post(t, ts, "/v1/cycle/close", struct{}{}, &first); code != http.StatusOK {
		t.Fatalf("first close status %d", code)
	}
	if code := post(t, ts, "/v1/cycle/close", struct{}{}, nil); code != http.StatusConflict {
		t.Fatalf("second close status %d, want 409", code)
	}
	if code := post(t, ts, "/v1/access", AccessRequest{EmployeeID: bgE, PatientID: bgP}, nil); code != http.StatusConflict {
		t.Fatalf("access after close status %d, want 409", code)
	}
	var st Status
	get(t, ts, "/v1/status", &st)
	if !st.Closed {
		t.Fatalf("status does not report the closed cycle: %+v", st)
	}
	if st.Accesses != 5 {
		t.Fatalf("rejected access inflated the counter: %+v", st)
	}
	if code := post(t, ts, "/v1/cycle/new", NewCycleRequest{Budget: 40}, nil); code != http.StatusOK {
		t.Fatalf("new cycle status %d", code)
	}
	get(t, ts, "/v1/status", &st)
	if st.Closed {
		t.Fatalf("new cycle did not reopen: %+v", st)
	}
	if code := post(t, ts, "/v1/access", AccessRequest{EmployeeID: bgE, PatientID: bgP}, nil); code != http.StatusOK {
		t.Fatalf("access after reopen status %d", code)
	}
	if code := post(t, ts, "/v1/cycle/close", struct{}{}, nil); code != http.StatusOK {
		t.Fatalf("close of the new cycle status %d", code)
	}
}

// TestQuitIsIdempotent: repeated quit reports for one employee re-confirm
// the flag but must not inflate the quit counter — front ends retry.
func TestQuitIsIdempotent(t *testing.T) {
	_, ts, bgE, _ := fixture(t)
	for i := 0; i < 3; i++ {
		var out struct {
			Flagged bool `json:"flagged"`
		}
		if code := post(t, ts, "/v1/quit", QuitRequest{EmployeeID: bgE}, &out); code != http.StatusOK || !out.Flagged {
			t.Fatalf("quit %d: status %d flagged %v", i, code, out.Flagged)
		}
	}
	var st Status
	get(t, ts, "/v1/status", &st)
	if st.Quits != 1 || st.FlaggedUsers != 1 {
		t.Fatalf("repeated quits inflated counters: %+v", st)
	}
}

// TestCycleTransitionUnderLoad: the engine alone keeps a request off a cycle
// boundary. Load goroutines send benign accesses, planted alerts and quits to
// one durable tenant while another loops close → new → snapshot. Every answer
// is 200, or the closed cycle's 409; each close's plan has one entry per
// decision journaled in its cycle, and no access or decision is journaled
// between a close and the next open, read back from a copy of the dir after
// each close; a reboot on a copy equals the live tenant.
func TestCycleTransitionUnderLoad(t *testing.T) {
	const cycles = 40
	// A solve slow enough that requests queue on the tenant's lock for over
	// a millisecond, which puts it in starvation mode: an unlock hands the
	// lock to the longest waiter, so a transition split across two holds lets
	// a request in between.
	slow := func(cfg *Config) {
		cfg.SSESolve = func(ctx context.Context, inst *game.Instance, budget float64, futures []dist.Poisson) (*game.Result, error) {
			time.Sleep(300 * time.Microsecond)
			return game.SolveOnlineSSECtx(ctx, inst, budget, futures)
		}
	}
	dir := t.TempDir()
	srv, ts, bgE, bgP := replicaFixture(t, dir, slow)
	defer srv.Close()
	h := srv.Handler()
	do := func(path, body string) (int, string) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
		return rec.Code, rec.Body.String()
	}
	tenantDir := srv.tenantWALDir(DefaultTenantID)

	var stop atomic.Bool
	var answered atomic.Int64
	var load sync.WaitGroup
	defer func() { // before srv.Close, on every way out
		stop.Store(true)
		load.Wait()
	}()
	bodies := []string{
		`{"employee_id":0,"patient_id":0}`,
		fmt.Sprintf(`{"employee_id":%d,"patient_id":%d}`, bgE, bgP),
		fmt.Sprintf(`{"employee_id":%d,"patient_id":%d}`, bgE+1, bgP+1),
	}
	for g := 0; g < 6; g++ {
		load.Add(1)
		go func() {
			defer load.Done()
			for k := 0; !stop.Load(); k++ {
				path, body := "/v1/access", bodies[(g+k)%len(bodies)]
				if k%16 == 15 {
					path, body = "/v1/quit", fmt.Sprintf(`{"employee_id":%d}`, (g*16+k)%bgE)
				}
				code, resp := do(path, body)
				answered.Add(1)
				if code != http.StatusOK && !(path == "/v1/access" && code == http.StatusConflict && strings.Contains(resp, "audit cycle is closed")) {
					t.Errorf("POST %s %s answered %d %s", path, body, code, resp)
					return
				}
			}
		}()
	}

	for c := 0; c < cycles && !t.Failed(); c++ {
		// Each cycle serves some load before it closes.
		for n := answered.Load() + 8; answered.Load() < n && !t.Failed(); {
			runtime.Gosched()
		}
		code, resp := do("/v1/cycle/close", `{}`)
		var plan CloseResponse
		if code != http.StatusOK || json.Unmarshal([]byte(resp), &plan) != nil {
			t.Fatalf("close %d answered %d %s", c, code, resp)
		}
		if got := journaledCycle(t, tenantDir); got != len(plan.Audits) {
			t.Fatalf("close %d: the plan has %d entries, its cycle journaled %d decisions", c, len(plan.Audits), got)
		}
		for _, step := range []struct{ path, body string }{{"/v1/cycle/new", `{"budget":50}`}, {"/v1/admin/snapshot", `{}`}} {
			if code, resp := do(step.path, step.body); code != http.StatusOK {
				t.Fatalf("cycle %d: POST %s answered %d %s", c, step.path, code, resp)
			}
		}
	}
	stop.Store(true)
	load.Wait()

	_, status := getRaw(t, ts, "/v1/status")
	_, summary := getRaw(t, ts, "/v1/cycle/summary")
	crashed := t.TempDir()
	copyTree(t, dir, crashed)
	srv2, ts2, _, _ := replicaFixture(t, crashed, slow)
	defer srv2.Close()
	if _, got := getRaw(t, ts2, "/v1/status"); got != status {
		t.Fatalf("rebooted status diverges:\n got %s\nwant %s", got, status)
	}
	if _, got := getRaw(t, ts2, "/v1/cycle/summary"); got != summary {
		t.Fatalf("rebooted summary diverges:\n got %s\nwant %s", got, summary)
	}
}

// journaledCycle reads a copy of a live tenant's journal dir and returns how
// many decisions the cycle its last close ended holds: those of the newest
// snapshot, when it is of that cycle, plus the decision records after it. It
// fails the test on an access or a decision journaled while the cycle was
// closed.
func journaledCycle(t *testing.T, tenantDir string) int {
	t.Helper()
	cp := t.TempDir()
	copyTree(t, tenantDir, cp)
	rec, err := wal.Recover(cp)
	if err != nil {
		t.Fatal(err)
	}
	var n int
	var closed bool
	if rec.Snapshot != nil {
		st, err := wal.DecodeSnapshot(rec.Snapshot)
		if err != nil {
			t.Fatal(err)
		}
		n, closed = len(st.Decisions), st.Closed
	}
	last := -1
	for i, r := range rec.Tail {
		switch r.Kind {
		case wal.KindMeta, wal.KindDecision:
			if closed {
				t.Fatalf("tail record %d: a %v record journaled on a closed cycle", i, r.Kind)
			}
			if r.Kind == wal.KindDecision {
				n++
			}
		case wal.KindCycleClose:
			closed, last = true, n
		case wal.KindCycleOpen:
			closed, n = false, 0
		}
	}
	if last < 0 {
		t.Fatal("no close journaled after the newest snapshot")
	}
	return last
}
