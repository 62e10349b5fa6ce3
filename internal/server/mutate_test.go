package server

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/auditgames/sag/internal/admit"
)

// cycleState is everything a mutation can change for one tenant, read
// straight off the serving state: a refused request must leave it untouched.
type cycleState struct {
	Accesses, Alerts, Warned, Quits int64
	Flagged                         int
	Closed                          bool
	Budget, Remaining               float64
	Decisions                       int
	Appends                         uint64
	// Counters are the tenant's sag_server_*_total service counters.
	Counters [4]uint64
	Tenants  string
}

func stateOf(t *testing.T, srv *Server) cycleState {
	t.Helper()
	tn, ok := srv.router.Get(DefaultTenantID)
	if !ok {
		// A standby holds no tenant: what a refusal could change there is
		// the journal and the resident set.
		return cycleState{Appends: walAppends(srv), Tenants: strings.Join(srv.Tenants(), ",")}
	}
	ts := tn.Data.(*tenantState)
	st := ts.engine.Status()
	return cycleState{
		Accesses: st.Accesses, Alerts: st.Alerts, Warned: st.Warned, Quits: st.Quits,
		Flagged: st.FlaggedUsers, Closed: st.Closed,
		Budget: st.Budget, Remaining: st.Remaining,
		Decisions: ts.engine.Summary().Alerts, Appends: walAppends(srv),
		Counters: serviceCounters(srv), Tenants: strings.Join(srv.Tenants(), ","),
	}
}

// serve runs one POST through the handler in-process.
func serve(srv *Server, path, body string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
	return rec
}

// TestMutationRouteStageMatrix pins the route × stage table the pipeline owns
// (DESIGN.md, "The mutation pipeline"): which routes each gate applies to,
// what a refusal answers, and that a refusal changes nothing.
func TestMutationRouteStageMatrix(t *testing.T) {
	type cell struct {
		code  int
		body  string // substring of the response body
		retry bool   // both backoff headers present and well-formed
	}
	routes := []string{"/v1/access", "/v1/quit", "/v1/cycle/close", "/v1/cycle/new"}
	valid := func(bgE, bgP int) map[string]string {
		return map[string]string{
			"/v1/access":      fmt.Sprintf(`{"employee_id":%d,"patient_id":%d}`, bgE, bgP),
			"/v1/quit":        `{"employee_id":3}`,
			"/v1/cycle/close": `{}`,
			"/v1/cycle/new":   `{"budget":40}`,
		}
	}
	all := func(c cell) map[string]cell {
		return map[string]cell{routes[0]: c, routes[1]: c, routes[2]: c, routes[3]: c}
	}
	ok := cell{code: http.StatusOK}
	stages := []struct {
		name string
		mod  func(*Config)
		prep func(t *testing.T, srv *Server)  // runs before the state snapshot
		body string                           // posted instead of the route's valid body
		edit func(route, valid string) string // or: the body posted, given the route's valid one
		// chunked posts the body without a Content-Length.
		chunked bool
		cells   map[string]cell
	}{
		{
			name:  "standby",
			mod:   func(cfg *Config) { cfg.FollowPrimary = "http://127.0.0.1:1" }, // never dialed: replication is not started
			cells: all(cell{http.StatusServiceUnavailable, "standby follower: mutations are rejected until POST /v1/admin/promote", true}),
		},
		{
			name:  "oversized body",
			body:  `{"tenant":"` + strings.Repeat("a", defaultMaxBodyBytes+1) + `"}`,
			cells: all(cell{code: http.StatusRequestEntityTooLarge, body: fmt.Sprintf("request body exceeds %d bytes", defaultMaxBodyBytes)}),
		},
		{
			name:  "oversized body after a complete value",
			body:  `{}` + strings.Repeat(" ", defaultMaxBodyBytes),
			cells: all(cell{code: http.StatusRequestEntityTooLarge, body: fmt.Sprintf("request body exceeds %d bytes", defaultMaxBodyBytes)}),
		},
		{
			// A body is one JSON value. The strict routes refuse what follows
			// it before the tenant it names is created; close reads the zero
			// request, so it closes the default tenant's cycle, not "a"'s.
			name: "trailing data",
			edit: func(route, valid string) string {
				if route == "/v1/cycle/close" {
					return `{"tenant":"a"}x`
				}
				return `{"tenant":"a",` + valid[1:] + `x`
			},
			cells: map[string]cell{
				"/v1/access":      {code: http.StatusBadRequest, body: "invalid JSON: "},
				"/v1/quit":        {code: http.StatusBadRequest, body: "invalid JSON: "},
				"/v1/cycle/close": {code: http.StatusOK, body: `"audits":`},
				"/v1/cycle/new":   {code: http.StatusBadRequest, body: "invalid JSON: "},
			},
		},
		{
			// Longer than one read, so the buffer grows past its first size.
			name:    "chunked body",
			edit:    func(_, valid string) string { return valid + strings.Repeat(" ", 4096) },
			chunked: true,
			cells: map[string]cell{
				"/v1/access":      {code: http.StatusOK, body: `"alert":true`},
				"/v1/quit":        {code: http.StatusOK, body: `{"flagged":true}`},
				"/v1/cycle/close": {code: http.StatusOK, body: `"audits":`},
				"/v1/cycle/new":   {code: http.StatusOK, body: `{"budget":40}`},
			},
		},
		{
			name: "junk body",
			body: `{garbage`,
			cells: map[string]cell{
				"/v1/access":      {code: http.StatusBadRequest, body: "invalid JSON: "},
				"/v1/quit":        {code: http.StatusBadRequest, body: "invalid JSON: "},
				"/v1/cycle/close": {code: http.StatusOK, body: `"audits":`},
				"/v1/cycle/new":   {code: http.StatusBadRequest, body: "invalid JSON: "},
			},
		},
		{
			name: "disk pressure",
			mod: func(cfg *Config) {
				cfg.SegmentBytes = 256
				cfg.DiskBudgetBytes = 1
				cfg.CompactInterval = time.Hour
			},
			prep: func(t *testing.T, srv *Server) {
				srv.retain.RunOnce()
				if _, blocked := srv.retain.Blocked(DefaultTenantID); !blocked {
					t.Fatal("tenant not blocked with a 1-byte budget")
				}
			},
			cells: map[string]cell{
				"/v1/access":      {http.StatusInsufficientStorage, `disk budget exhausted: tenant \"default\" has no reclaimable journal bytes`, true},
				"/v1/quit":        {http.StatusInsufficientStorage, `disk budget exhausted: tenant \"default\" has no reclaimable journal bytes`, true},
				"/v1/cycle/close": ok,
				"/v1/cycle/new":   ok,
			},
		},
		{
			name: "admission shed",
			mod:  func(cfg *Config) { cfg.Admission = admit.Config{MaxInflight: 1} },
			prep: func(t *testing.T, srv *Server) { // hold the only slot; there is no queue
				release, err := srv.admit.Admit(context.Background(), DefaultTenantID)
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(release)
			},
			cells: map[string]cell{
				"/v1/access":      {http.StatusServiceUnavailable, "overloaded (queue_full): request shed; retry after ", true},
				"/v1/quit":        {http.StatusServiceUnavailable, "overloaded (queue_full): request shed; retry after ", true},
				"/v1/cycle/close": ok,
				"/v1/cycle/new":   ok,
			},
		},
		{
			name:  "expired deadline",
			mod:   func(cfg *Config) { cfg.RequestTimeout = time.Nanosecond },
			cells: all(cell{http.StatusServiceUnavailable, `{"error":"request timed out"}`, true}),
		},
		{
			name: "closed cycle",
			prep: func(t *testing.T, srv *Server) {
				if rec := serve(srv, "/v1/cycle/close", ""); rec.Code != http.StatusOK {
					t.Fatalf("closing the cycle answered %d", rec.Code)
				}
			},
			cells: map[string]cell{
				"/v1/access":      {code: http.StatusConflict, body: "audit cycle is closed; POST /v1/cycle/new to start the next one"},
				"/v1/quit":        {code: http.StatusOK, body: `{"flagged":true}`},
				"/v1/cycle/close": {code: http.StatusConflict, body: "audit cycle already closed; POST /v1/cycle/new to start the next one"},
				"/v1/cycle/new":   {code: http.StatusOK, body: `{"budget":40}`},
			},
		},
	}
	for _, st := range stages {
		for _, route := range routes {
			t.Run(st.name+route, func(t *testing.T) {
				srv, _, bgE, bgP := replicaFixture(t, t.TempDir(), st.mod)
				defer srv.Close()
				if st.prep != nil {
					st.prep(t, srv)
				}
				before := stateOf(t, srv)
				body := st.body
				if body == "" {
					body = valid(bgE, bgP)[route]
				}
				if st.edit != nil {
					body = st.edit(route, body)
				}
				var rec *httptest.ResponseRecorder
				if st.chunked {
					rec = httptest.NewRecorder()
					srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, route, io.MultiReader(strings.NewReader(body))))
				} else {
					rec = serve(srv, route, body)
				}
				want := st.cells[route]
				if rec.Code != want.code || !strings.Contains(rec.Body.String(), want.body) {
					t.Fatalf("answered %d %q, want %d containing %q", rec.Code, rec.Body.String(), want.code, want.body)
				}
				if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
					t.Fatalf("Content-Type %q, want application/json", ct)
				}
				if want.retry {
					checkRetryHeaders(t, rec.Header())
				} else if ra := rec.Header().Get("Retry-After"); ra != "" {
					t.Fatalf("unexpected Retry-After %q on a %d", ra, rec.Code)
				}
				after := stateOf(t, srv)
				if after.Tenants != before.Tenants {
					t.Fatalf("resident tenants %q, want %q: no cell creates a tenant", after.Tenants, before.Tenants)
				}
				if want.code != http.StatusOK && !reflect.DeepEqual(before, after) {
					t.Fatalf("a refused request changed state:\nbefore: %+v\nafter:  %+v", before, after)
				}
				if want.code == http.StatusOK && after.Appends != before.Appends+1 {
					t.Fatalf("an acknowledged request journaled %d records, want exactly 1", after.Appends-before.Appends)
				}
			})
		}
	}
}

// TestInvalidRequestCreatesNoTenant: a request that is wrong on its face is
// refused before the tenant is resolved, so it cannot leave one behind — no
// slot toward MaxTenants, no journal directory, no preallocated segment.
func TestInvalidRequestCreatesNoTenant(t *testing.T) {
	for _, durable := range []bool{false, true} {
		t.Run(fmt.Sprintf("durable=%v", durable), func(t *testing.T) {
			dir := t.TempDir()
			srv, ts, _, _ := fixtureWith(t, func(cfg *Config) {
				if durable {
					cfg.DataDir = dir
				}
			})
			defer srv.Close()
			before := srv.Tenants()
			for _, c := range []struct{ path, body string }{
				{"/v1/cycle/new", `{"tenant":"ghost","budget":-1}`},
				{"/v1/quit", `{"tenant":"ghost","employee_id":1048576}`},
				{"/v1/quit", `{"tenant":"ghost","employee_id":-1}`},
			} {
				if rec := serve(srv, c.path, c.body); rec.Code != http.StatusBadRequest {
					t.Fatalf("POST %s %s answered %d, want 400", c.path, c.body, rec.Code)
				}
			}
			if code := get(t, ts, "/v1/status?tenant=ghost", nil); code != http.StatusNotFound {
				t.Fatalf("status for the ghost tenant: %d, want 404", code)
			}
			if got := srv.Tenants(); !reflect.DeepEqual(got, before) {
				t.Fatalf("resident tenants %v, want %v", got, before)
			}
			if _, err := os.Stat(filepath.Join(dir, "tenants", "t-ghost")); !os.IsNotExist(err) {
				t.Fatalf("journal directory for the ghost tenant exists (stat err %v)", err)
			}
			// A detector-rejected access is not such a request: it stays one
			// counted, journaled access answered 400.
			var st Status
			if code := post(t, ts, "/v1/access", AccessRequest{EmployeeID: 1 << 20}, nil); code != http.StatusBadRequest {
				t.Fatalf("malformed access answered %d, want 400", code)
			}
			get(t, ts, "/v1/status", &st)
			if st.Accesses != 1 || (durable && walAppends(srv) != 1) {
				t.Fatalf("malformed access: accesses=%d journal appends=%d, want 1 and 1", st.Accesses, walAppends(srv))
			}
		})
	}
}

// TestConcurrentFirstQuit: first reports of one employee racing each other
// flag them once and count one quit, and a server recovered from the journal
// they wrote agrees. Each racer journals a record; the engine flags and counts
// only the first, live and on replay alike.
func TestConcurrentFirstQuit(t *testing.T) {
	dir := t.TempDir()
	srv, ts, _, _ := durableFixture(t, dir)
	defer srv.Close()
	const racers = 8
	var wg sync.WaitGroup
	start := make(chan struct{})
	codes := make([]int, racers)
	for i := range codes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			codes[i] = serve(srv, "/v1/quit", `{"employee_id":7}`).Code
		}()
	}
	close(start)
	wg.Wait()
	for i, code := range codes {
		if code != http.StatusOK {
			t.Fatalf("racer %d answered %d", i, code)
		}
	}
	var st Status
	get(t, ts, "/v1/status", &st)
	if st.Quits != 1 || st.FlaggedUsers != 1 {
		t.Fatalf("quits=%d flagged_users=%d after %d racing first quits, want 1 and 1", st.Quits, st.FlaggedUsers, racers)
	}
	live := mustGetRaw(t, ts, "/v1/status")
	dir2 := t.TempDir()
	copyTree(t, dir, dir2)
	srv2, ts2, _, _ := durableFixture(t, dir2)
	defer srv2.Close()
	if got := mustGetRaw(t, ts2, "/v1/status"); got != live {
		t.Fatalf("recovered status diverges:\nlive:      %s\nrecovered: %s", live, got)
	}
}
