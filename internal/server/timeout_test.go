package server

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/auditgames/sag/internal/admit"
	"github.com/auditgames/sag/internal/core"
	"github.com/auditgames/sag/internal/dist"
	"github.com/auditgames/sag/internal/faultinject"
	"github.com/auditgames/sag/internal/game"
	"github.com/auditgames/sag/internal/wal"
)

// The request-timeout contract. Config.RequestTimeout is a deadline on the
// request context, served on the connection's own goroutine — not a second
// goroutine racing the handler (http.TimeoutHandler, where a 503 could be
// followed by the commit). So: 503 "request timed out" means nothing was
// applied; a request that has committed is answered however late; and code
// that ignores its context is bounded only by http.Server's WriteTimeout.

var fixtureRates = []float64{196.57, 29.02, 140.46, 10.84, 25.43, 15.14, 43.27}

// slowEstimator answers the fixture's rates, after sleeping while slow is
// set. It returns — it does not block forever — which is the case a
// deadline (rather than a second goroutine) can answer.
func slowEstimator(slow *atomic.Bool, d time.Duration) core.Estimator {
	return core.EstimatorFunc(func(time.Duration) ([]float64, error) {
		if slow.Load() {
			time.Sleep(d)
		}
		return fixtureRates, nil
	})
}

func walAppends(srv *Server) uint64 {
	return srv.Metrics().Snapshot().Counters[wal.MetricAppendsTotal+`{tenant="default"}`]
}

// (a) An estimator that returns after the deadline has passed: the engine's
// check immediately before commit abandons the decision. The 503 carries
// the JSON body and both retry headers, and the tenant is exactly as if the
// request had never arrived — status, journal, and the signal RNG stream.
func TestRequestTimeoutChangesNothing(t *testing.T) {
	var slow atomic.Bool
	build := func() (*Server, *httptest.Server, int, int) {
		dir := t.TempDir()
		return fixtureWith(t, func(cfg *Config) {
			// Generous, so that only the slow request can miss the deadline
			// even on a loaded CI box with a slow fsync.
			cfg.Estimator = slowEstimator(&slow, 450*time.Millisecond)
			cfg.RequestTimeout = 200 * time.Millisecond
			cfg.DataDir = dir
			cfg.Fsync = wal.FsyncAlways
		})
	}
	srv, ts, bgE, bgP := build()
	defer srv.Close()
	alert := AccessRequest{EmployeeID: bgE, PatientID: bgP}

	_, first, _ := postRaw(t, ts, "/v1/access", alert)
	_, statusBefore := getRaw(t, ts, "/v1/status")
	appendsBefore := walAppends(srv)

	slow.Store(true)
	code, body, hdr := postRaw(t, ts, "/v1/access", alert)
	slow.Store(false)
	if code != http.StatusServiceUnavailable || body != `{"error":"request timed out"}`+"\n" {
		t.Fatalf("slow request answered %d %q, want 503 request timed out", code, body)
	}
	if ct := hdr.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("timeout Content-Type %q, want application/json", ct)
	}
	checkRetryHeaders(t, hdr)

	if _, statusAfter := getRaw(t, ts, "/v1/status"); statusAfter != statusBefore {
		t.Fatalf("a timed-out request changed /v1/status:\nbefore: %s\nafter:  %s", statusBefore, statusAfter)
	}
	if got := walAppends(srv); got != appendsBefore {
		t.Fatalf("a timed-out request journaled %d record(s)", got-appendsBefore)
	}
	_, next, _ := postRaw(t, ts, "/v1/access", alert)

	// A fresh server that never saw the timed-out request answers the same
	// two alerts byte for byte: no signal draw was consumed.
	fresh, fts, _, _ := build()
	defer fresh.Close()
	_, wantFirst, _ := postRaw(t, fts, "/v1/access", alert)
	_, wantNext, _ := postRaw(t, fts, "/v1/access", alert)
	if first != wantFirst || next != wantNext {
		t.Fatalf("answers diverged from a server that never saw the timed-out request:\n got %s %s\nwant %s %s",
			first, next, wantFirst, wantNext)
	}
}

// (b) A deadline that passes in the admission queue is answered by the
// admission controller's own shed path, and changes nothing.
func TestRequestTimeoutInAdmissionQueueIsShed(t *testing.T) {
	entered, release := make(chan struct{}, 1), make(chan struct{})
	_, ts, bgE, bgP := fixtureWith(t, func(cfg *Config) {
		cfg.RequestTimeout = 50 * time.Millisecond
		cfg.Admission = admit.Config{MaxInflight: 1, QueueDepth: 4}
		// The slot holder's solve keeps the slot until released, and then
		// returns only once its own deadline has demonstrably passed.
		cfg.SSESolve = func(ctx context.Context, inst *game.Instance, budget float64, futures []dist.Poisson) (*game.Result, error) {
			entered <- struct{}{}
			<-release
			<-ctx.Done()
			return game.SolveOnlineSSECtx(context.Background(), inst, budget, futures)
		}
	})
	alert := AccessRequest{EmployeeID: bgE, PatientID: bgP}
	holder := make(chan int, 1)
	go func() {
		code, _, _ := postRaw(t, ts, "/v1/access", alert)
		holder <- code
	}()
	<-entered // the only slot is taken; the next request queues

	code, body, hdr := postRaw(t, ts, "/v1/access", alert)
	if code != http.StatusServiceUnavailable || !strings.Contains(body, "overloaded ("+admit.ReasonCanceled+")") {
		t.Fatalf("queued request answered %d %q, want the admission shed", code, body)
	}
	checkRetryHeaders(t, hdr)

	// The holder comes back with a good solve but past its deadline: the
	// engine's pre-commit check abandons it too.
	close(release)
	if code := <-holder; code != http.StatusServiceUnavailable {
		t.Fatalf("slot holder answered %d after its deadline, want 503", code)
	}
	var st Status
	get(t, ts, "/v1/status", &st)
	if st.Accesses != 0 || st.Alerts != 0 || st.Warned != 0 || st.RemainingBudget != st.Budget {
		t.Fatalf("shed and abandoned requests changed state: %+v", st)
	}
}

// (c) Past the engine's pre-commit check there is no way back: a request
// whose deadline passes after it committed (here: a journal append that
// stalls) is answered with its decision, however late.
func TestCommittedRequestIsAnsweredHoweverLate(t *testing.T) {
	dir := t.TempDir()
	srv, ts, bgE, bgP := fixtureWith(t, func(cfg *Config) {
		cfg.RequestTimeout = 200 * time.Millisecond
		cfg.DataDir = dir
	})
	defer srv.Close()
	srv.SetJournalFault(faultinject.New("stall", faultinject.Config{LatencyRate: 1, Latency: 450 * time.Millisecond}))
	t0 := time.Now()
	var resp AccessResponse
	if code := post(t, ts, "/v1/access", AccessRequest{EmployeeID: bgE, PatientID: bgP}, &resp); code != http.StatusOK {
		t.Fatalf("committed request answered %d, want 200", code)
	}
	if took := time.Since(t0); took < 400*time.Millisecond {
		t.Fatalf("the stall did not outlast the deadline (%v); the test proved nothing", took)
	}
	srv.SetJournalFault(nil)
	var st Status
	get(t, ts, "/v1/status", &st)
	if !resp.Alert || st.Accesses != 1 || st.Alerts != 1 || st.RemainingBudget != resp.RemainingBudget {
		t.Fatalf("late answer %+v does not match the committed state %+v", resp, st)
	}
}

// (d) RequestTimeout 0 installs no deadline; a positive one is visible to
// everything the handler calls.
func TestRequestTimeoutZeroInstallsNoDeadline(t *testing.T) {
	for _, timeout := range []time.Duration{0, time.Minute} {
		var sawDeadline atomic.Bool
		_, ts, bgE, bgP := fixtureWith(t, func(cfg *Config) {
			cfg.RequestTimeout = timeout
			cfg.SSESolve = func(ctx context.Context, inst *game.Instance, budget float64, futures []dist.Poisson) (*game.Result, error) {
				_, ok := ctx.Deadline()
				sawDeadline.Store(ok)
				return game.SolveOnlineSSECtx(ctx, inst, budget, futures)
			}
		})
		if code := post(t, ts, "/v1/access", AccessRequest{EmployeeID: bgE, PatientID: bgP}, nil); code != http.StatusOK {
			t.Fatalf("access status %d", code)
		}
		if got, want := sawDeadline.Load(), timeout > 0; got != want {
			t.Fatalf("RequestTimeout %v: solver saw a deadline = %v, want %v", timeout, got, want)
		}
	}
}

// (e) A panicking handler answers 500 "internal error" through the same
// wrapper, is counted, and shows up in the route's request metrics.
func TestWrapContainsPanics(t *testing.T) {
	srv, _, _, _ := fixture(t)
	h := srv.wrap(srv.newRouteMetrics("/boom"), time.Second, func(http.ResponseWriter, *http.Request) {
		panic("handler bug")
	})
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/boom", nil))
	if rec.Code != http.StatusInternalServerError || rec.Body.String() != `{"error":"internal error"}`+"\n" {
		t.Fatalf("panicking handler answered %d %q, want 500 internal error", rec.Code, rec.Body)
	}
	snap := srv.Metrics().Snapshot()
	if n := snap.Counters[MetricHTTPPanicsTotal]; n != 1 {
		t.Fatalf("panic counter = %d, want 1", n)
	}
	if n := snap.Counters[MetricHTTPRequestsTotal+`{code="500",route="/boom"}`]; n != 1 {
		t.Fatalf("requests_total{route=/boom,code=500} = %d, want 1", n)
	}
	if g := snap.Gauges[MetricHTTPInflightRequests]; g != 0 {
		t.Fatalf("inflight gauge = %g after the panic, want 0", g)
	}
}

// (f) The wrapper's Unwrap keeps http.ResponseController working, which is
// what the replication stream's per-write deadlines and flushes ride on.
func TestWrapKeepsResponseController(t *testing.T) {
	srv, _, _, _ := fixture(t)
	errs := make(chan error, 2)
	ts := httptest.NewServer(srv.wrap(nil, 0, func(w http.ResponseWriter, _ *http.Request) {
		rc := http.NewResponseController(w)
		errs <- rc.SetWriteDeadline(time.Now().Add(time.Second))
		_, _ = io.WriteString(w, "frame")
		errs <- rc.Flush()
	}))
	defer ts.Close()
	resp, err := http.Get(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	for _, what := range []string{"SetWriteDeadline", "Flush"} {
		if err := <-errs; err != nil {
			t.Fatalf("%s through the wrapper: %v", what, err)
		}
	}
}

// (f) The probes and promote take no deadline and touch neither admission
// nor a tenant: they answer while the API is saturated.
func TestProbesAnswerWhileAPISaturated(t *testing.T) {
	gs := newGatedSolver()
	_, ts, bgE, bgP := fixtureWith(t, func(cfg *Config) {
		cfg.SSESolve = gs.solve
		cfg.Admission = admit.Config{MaxInflight: 1}
	})
	alert := AccessRequest{EmployeeID: bgE, PatientID: bgP}
	held := make(chan int, 1)
	go func() { held <- post(t, ts, "/v1/access", alert, nil) }()
	<-gs.entered
	if code := post(t, ts, "/v1/access", alert, nil); code != http.StatusServiceUnavailable {
		t.Fatalf("second access answered %d, want 503: the API is not saturated", code)
	}
	if code := get(t, ts, "/v1/healthz", nil); code != http.StatusOK {
		t.Fatalf("healthz while saturated = %d, want 200", code)
	}
	if code := get(t, ts, "/v1/readyz", nil); code != http.StatusOK {
		t.Fatalf("readyz while saturated = %d, want 200", code)
	}
	if code := post(t, ts, "/v1/admin/promote", struct{}{}, nil); code != http.StatusConflict {
		t.Fatalf("promote while saturated = %d, want 409 (not a standby)", code)
	}
	close(gs.release)
	if code := <-held; code != http.StatusOK {
		t.Fatalf("held access answered %d, want 200", code)
	}
}

// The one routing change of a single mux: a wrong-method request to the
// four routes that used to sit on the outer mux now gets 405 + Allow, like
// every other route, instead of falling through "/" to the API mux's 404.
func TestWrongMethodOnRootRoutesIs405(t *testing.T) {
	_, ts, _, _ := fixture(t)
	for _, c := range []struct{ method, path string }{
		{"POST", "/v1/healthz"},
		{"POST", "/v1/readyz"},
		{"POST", "/v1/replicate"},
		{"GET", "/v1/admin/promote"},
		{"GET", "/v1/access"}, // unchanged: already 405
	} {
		req, err := http.NewRequest(c.method, ts.URL+c.path, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed || resp.Header.Get("Allow") == "" {
			t.Errorf("%s %s = %d (Allow %q), want 405 with Allow", c.method, c.path, resp.StatusCode, resp.Header.Get("Allow"))
		}
	}
	if code := get(t, ts, "/v1/nope", nil); code != http.StatusNotFound {
		t.Errorf("unknown path = %d, want 404", code)
	}
}

// countingWriter is a reusable http.ResponseWriter for the alloc guard: it
// keeps one header map and records only the status.
type countingWriter struct {
	h    http.Header
	code int
}

func (w *countingWriter) Header() http.Header         { return w.h }
func (w *countingWriter) Write(b []byte) (int, error) { return len(b), nil }
func (w *countingWriter) WriteHeader(code int)        { w.code = code }

// TestServingAllocBudget guards the serving path's allocation count — a
// portable number, unlike latency. One run is one planted-pair alert plus
// one benign access through Handler() on an in-memory tenant, with the
// request deadline installed as in production.
func TestServingAllocBudget(t *testing.T) {
	srv, _, bgE, bgP := fixtureWith(t, func(cfg *Config) {
		cfg.Budget = 1e9
		cfg.RequestTimeout = 10 * time.Second
	})
	h := srv.Handler()
	w := &countingWriter{h: make(http.Header)}
	serve := func(body []byte) {
		req := httptest.NewRequest("POST", "/v1/access", bytes.NewReader(body))
		w.code = 0
		h.ServeHTTP(w, req)
		if w.code != http.StatusOK {
			t.Fatalf("access answered %d", w.code)
		}
	}
	alert := []byte(`{"employee_id":` + strconv.Itoa(bgE) + `,"patient_id":` + strconv.Itoa(bgP) + `}`)
	benign := []byte(`{"employee_id":0,"patient_id":0}`)
	// httptest.NewRequest's own allocations are measured separately and
	// subtracted, so the budget is the server's.
	setup := testing.AllocsPerRun(200, func() {
		_ = httptest.NewRequest("POST", "/v1/access", bytes.NewReader(alert))
		_ = httptest.NewRequest("POST", "/v1/access", bytes.NewReader(benign))
	})
	total := testing.AllocsPerRun(200, func() {
		serve(alert)
		serve(benign)
	})
	const ceiling = 48 // measured 43 (46 under -race)
	if got := total - setup; got > ceiling {
		t.Fatalf("one alert + one benign access allocate %.0f objects in the server, budget %d.\n"+
			"The usual culprits: a ResponseWriter wrapper per middleware layer instead of the one in wrap, "+
			"r.WithContext called twice, a registry lookup (label formatting) per request instead of a "+
			"pre-resolved instrument, a goroutine or channel per request.", got, ceiling)
	} else {
		t.Logf("one alert + one benign access: %.0f server allocations (budget %d)", got, ceiling)
	}
}
