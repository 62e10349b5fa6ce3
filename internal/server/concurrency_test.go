package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/auditgames/sag/internal/dist"
	"github.com/auditgames/sag/internal/game"
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

// TestConcurrentAccessSolvesOverlap is the regression test against a
// box-wide lock: two slow /v1/access solves for different tenants must be
// inside the SSE solver simultaneously. One tenant's decisions are
// sequential by design (the engine decides under its budget lock); if
// anything shared between tenants were held across a decision, the second
// request could not reach the solver until the first returned, and this
// test would time out at the barrier.
func TestConcurrentAccessSolvesOverlap(t *testing.T) {
	bs := newGatedSolver()
	_, ts, bgE, bgP := testServer(t, func(cfg *Config) { cfg.SSESolve = bs.solve })

	var wg sync.WaitGroup
	type result struct {
		code int
		body string
	}
	results := make(chan result, 2)
	for _, tenant := range []string{"icu", "oncology"} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			code, body, _ := do(t, ts.URL, "POST", "/v1/access", "", AccessRequest{Tenant: tenant, EmployeeID: bgE, PatientID: bgP})
			results <- result{code, body}
		}()
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
		resp := decode[AccessResponse](t, r.body)
		if !resp.Alert {
			t.Fatalf("planted pair did not alert: %+v", resp)
		}
		if resp.Fallback != "" {
			t.Fatalf("decision degraded (%s): the solver barrier timed out", resp.Fallback)
		}
	}
}

// TestCloseCycleGuard: the cycle can be closed once. A second close — which
// would re-sample the audit plan and re-charge its total — answers 409, as
// does /v1/access, until /v1/cycle/new reopens the server.
func TestCloseCycleGuard(t *testing.T) {
	_, ts, bgE, bgP := testServer(t)
	alert := AccessRequest{EmployeeID: bgE, PatientID: bgP}
	for i := 0; i < 5; i++ {
		if code, _, _ := do(t, ts.URL, "POST", "/v1/access", "", alert); code != http.StatusOK {
			t.Fatalf("access status %d", code)
		}
	}
	if code, _, _ := do(t, ts.URL, "POST", "/v1/cycle/close", "", struct{}{}); code != http.StatusOK {
		t.Fatalf("first close status %d", code)
	}
	if code, _, _ := do(t, ts.URL, "POST", "/v1/cycle/close", "", struct{}{}); code != http.StatusConflict {
		t.Fatalf("second close status %d, want 409", code)
	}
	if code, _, _ := do(t, ts.URL, "POST", "/v1/access", "", alert); code != http.StatusConflict {
		t.Fatalf("access after close status %d, want 409", code)
	}
	_, body, _ := do(t, ts.URL, "GET", "/v1/status", "", nil)
	st := decode[Status](t, body)
	if !st.Closed {
		t.Fatalf("status does not report the closed cycle: %+v", st)
	}
	if st.Accesses != 5 {
		t.Fatalf("rejected access inflated the counter: %+v", st)
	}
	if code, _, _ := do(t, ts.URL, "POST", "/v1/cycle/new", "", NewCycleRequest{Budget: 40}); code != http.StatusOK {
		t.Fatalf("new cycle status %d", code)
	}
	if _, body, _ = do(t, ts.URL, "GET", "/v1/status", "", nil); decode[Status](t, body).Closed {
		t.Fatalf("new cycle did not reopen: %s", body)
	}
	if code, _, _ := do(t, ts.URL, "POST", "/v1/access", "", alert); code != http.StatusOK {
		t.Fatalf("access after reopen status %d", code)
	}
	if code, _, _ := do(t, ts.URL, "POST", "/v1/cycle/close", "", struct{}{}); code != http.StatusOK {
		t.Fatalf("close of the new cycle status %d", code)
	}
}

// TestQuitIsIdempotent: repeated quit reports for one employee re-confirm
// the flag but must not inflate the quit counter — front ends retry.
func TestQuitIsIdempotent(t *testing.T) {
	_, ts, bgE, _ := testServer(t)
	for i := 0; i < 3; i++ {
		if code, body, _ := do(t, ts.URL, "POST", "/v1/quit", "", QuitRequest{EmployeeID: bgE}); code != http.StatusOK || body != `{"flagged":true}`+"\n" {
			t.Fatalf("quit %d: status %d %s, want flagged", i, code, body)
		}
	}
	_, body, _ := do(t, ts.URL, "GET", "/v1/status", "", nil)
	if st := decode[Status](t, body); st.Quits != 1 || st.FlaggedUsers != 1 {
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
	srv, ts, bgE, bgP := testServer(t, durableIn(dir), slow)
	defer srv.Close()
	h := srv.Handler()
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
				code, resp, _ := do(t, h, "POST", path, "", body)
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
		code, resp, _ := do(t, h, "POST", "/v1/cycle/close", "", `{}`)
		var plan CloseResponse
		if code != http.StatusOK || json.Unmarshal([]byte(resp), &plan) != nil {
			t.Fatalf("close %d answered %d %s", c, code, resp)
		}
		if got := journaledCycle(t, tenantDir); got != len(plan.Audits) {
			t.Fatalf("close %d: the plan has %d entries, its cycle journaled %d decisions", c, len(plan.Audits), got)
		}
		for _, step := range []struct{ path, body string }{{"/v1/cycle/new", `{"budget":50}`}, {"/v1/admin/snapshot", `{}`}} {
			if code, resp, _ := do(t, h, "POST", step.path, "", step.body); code != http.StatusOK {
				t.Fatalf("cycle %d: POST %s answered %d %s", c, step.path, code, resp)
			}
		}
	}
	stop.Store(true)
	load.Wait()

	_, status, _ := do(t, ts.URL, "GET", "/v1/status", "", nil)
	_, summary, _ := do(t, ts.URL, "GET", "/v1/cycle/summary", "", nil)
	crashed := t.TempDir()
	copyTree(t, dir, crashed)
	srv2, ts2, _, _ := testServer(t, durableIn(crashed), slow)
	defer srv2.Close()
	if code, got, _ := do(t, ts2.URL, "GET", "/v1/status", "", nil); code != http.StatusOK || got != status {
		t.Fatalf("rebooted status diverges:\n got %d %s\nwant %s", code, got, status)
	}
	if _, got, _ := do(t, ts2.URL, "GET", "/v1/cycle/summary", "", nil); got != summary {
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
