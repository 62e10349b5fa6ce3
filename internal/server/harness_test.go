package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/auditgames/sag/internal/alerts"
	"github.com/auditgames/sag/internal/core"
	"github.com/auditgames/sag/internal/emr"
	"github.com/auditgames/sag/internal/sim"
	"github.com/auditgames/sag/internal/wal"
)

// The test harness. Every test of this package builds its server with
// testConfig or testServer, sends its requests with do and reads the metric
// registry with scrape: a test that needs another server passes a modifier.

// fixtureRates are the fixed Table-1 rates the standard estimator answers.
// The engine copies an estimate and never keeps the slice, so every call
// answers this one.
var fixtureRates = []float64{196.57, 29.02, 140.46, 10.84, 25.43, 15.14, 43.27}

// dflt is the label set of the default tenant's series.
const dflt = `{tenant="default"}`

// testConfig is the standard Config — the Table-1 game over a world of 30
// employees and 100 patients with planted pairs, the fixed rates, budget 50,
// seed 1 and a clock at 9h — after mods, applied in order (nil ones are
// skipped). The returned IDs are the type-1 (same last name) planted pair;
// the type-2 (coworker) pair is at (bgE+3, bgP+3): PairsPerKind pairs are
// planted per kind, in kind order.
func testConfig(t testing.TB, mods ...func(*Config)) (cfg Config, bgE, bgP int) {
	t.Helper()
	world, err := emr.NewWorld(emr.WorldConfig{Seed: 5, Employees: 30, Patients: 100, Departments: 4})
	if err != nil {
		t.Fatal(err)
	}
	bgE, bgP = world.NumEmployees(), world.NumPatients()
	if _, err := emr.NewGenerator(world, emr.GeneratorConfig{Seed: 5, PairsPerKind: 3, BackgroundPerDay: 1}); err != nil {
		t.Fatal(err)
	}
	inst, err := sim.Table1Instance(sim.AllTable1TypeIDs())
	if err != nil {
		t.Fatal(err)
	}
	cfg = Config{
		World:     world,
		Taxonomy:  alerts.NewTable1Taxonomy(),
		TypeIDs:   sim.AllTable1TypeIDs(),
		Instance:  inst,
		Budget:    50,
		Estimator: core.EstimatorFunc(func(time.Duration) ([]float64, error) { return fixtureRates, nil }),
		Seed:      1,
		Clock:     func() time.Duration { return 9 * time.Hour },
	}
	for _, mod := range mods {
		if mod != nil {
			mod(&cfg)
		}
	}
	return cfg, bgE, bgP
}

// testServer builds the server of testConfig(t, mods...) and serves its
// Handler over an httptest server that t's cleanup closes. A test that needs
// the server sealed (a durable one's shutdown snapshot) calls Close itself.
func testServer(t testing.TB, mods ...func(*Config)) (*Server, *httptest.Server, int, int) {
	t.Helper()
	cfg, bgE, bgP := testConfig(t, mods...)
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts, bgE, bgP
}

// durableIn journals every tenant under dir with FsyncAlways. A second
// server over the same dir models a restart.
func durableIn(dir string) func(*Config) {
	return func(cfg *Config) { cfg.DataDir, cfg.Fsync = dir, wal.FsyncAlways }
}

// resident returns srv's resident tenant id, failing t when it has none.
func resident(t testing.TB, srv *Server, id string) *tenantState {
	t.Helper()
	tn, ok := srv.router.Get(id)
	if !ok {
		t.Fatalf("tenant %q is not resident", id)
	}
	return tn.Data.(*tenantState)
}

// do sends one request to target — a base URL, over a real socket, or an
// http.Handler, in process — and returns the status, the body and the
// response headers. A non-empty tenant goes in X-SAG-Tenant. body is sent as
// it is when it is a string or an io.Reader (one whose length the request
// cannot see goes without a Content-Length), JSON-encoded otherwise, and not
// at all when nil. A request that gets no response fails t with Errorf,
// which any goroutine may call, and answers status 0.
func do(t testing.TB, target any, method, path, tenant string, body any) (int, string, http.Header) {
	t.Helper()
	var r io.Reader
	switch b := body.(type) {
	case nil:
	case string:
		r = strings.NewReader(b)
	case io.Reader:
		r = b
	default:
		raw, err := json.Marshal(b)
		if err != nil {
			t.Errorf("%s %s: encoding the body: %v", method, path, err)
			return 0, "", nil
		}
		r = bytes.NewReader(raw)
	}
	h, local := target.(http.Handler)
	var req *http.Request
	if local {
		req = httptest.NewRequest(method, path, r)
	} else {
		base, _ := target.(string)
		var err error
		if req, err = http.NewRequest(method, base+path, r); err != nil {
			t.Errorf("%s %s: %v", method, path, err)
			return 0, "", nil
		}
	}
	if tenant != "" {
		req.Header.Set(TenantHeader, tenant)
	}
	if local {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		return rec.Code, rec.Body.String(), rec.Header()
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Errorf("%s %s: %v", method, path, err)
		return 0, "", nil
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Errorf("%s %s: reading the body: %v", method, path, err)
		return 0, "", nil
	}
	return resp.StatusCode, string(raw), resp.Header
}

// decode unmarshals a JSON body into a T, failing t when it does not parse.
// Call it on the test goroutine.
func decode[T any](t testing.TB, body string) T {
	t.Helper()
	var v T
	if err := json.Unmarshal([]byte(body), &v); err != nil {
		t.Fatalf("decoding %q: %v", body, err)
	}
	return v
}

// scrape reads srv's registry as a scrape does: the sample lines of its
// Prometheus exposition by series as exported (`name{labels}`, a histogram
// as its _bucket, _sum and _count series) — when prefixes are given, only
// the series that start with one of them.
func scrape(t testing.TB, srv *Server, prefixes ...string) map[string]float64 {
	t.Helper()
	var buf strings.Builder
	if err := srv.Metrics().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	samples := map[string]float64{}
	for _, line := range strings.Split(buf.String(), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		if len(prefixes) > 0 && !slices.ContainsFunc(prefixes, func(p string) bool { return strings.HasPrefix(line, p) }) {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Fatalf("scrape line %q: %v", line, err)
		}
		samples[line[:i]] = v
	}
	return samples
}
