package server

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/auditgames/sag/internal/obs"
	"github.com/auditgames/sag/internal/wal"
)

// BenchmarkServeParallel drives a durable server (-fsync always) from
// b.RunParallel with 31 benign accesses to one planted alert. Its arms are
// disjoint (each goroutine owns a tenant) or hot (every goroutine on one
// tenant), at parallelism 1, 8 and 32, over a real socket or straight into
// Server.Handler, so socket cost is the difference of two measurements. From
// the server's own registry it reports the group-commit yield (appends/fsync)
// and fsyncs/op. It is a correctness run too:
// every response must be 200, and each tenant's /v1/status must count exactly
// the accesses sent to it.
//
// Parallelism stays at 32 or below: a goroutine inside fdatasync holds an OS
// thread.
func BenchmarkServeParallel(b *testing.B) {
	for _, hot := range []bool{false, true} {
		for _, par := range []int{1, 8, 32} {
			for _, socket := range []bool{true, false} {
				name := fmt.Sprintf("%s/p%d/%s", map[bool]string{false: "disjoint", true: "hot"}[hot],
					par, map[bool]string{false: "handler", true: "socket"}[socket])
				b.Run(name, func(b *testing.B) { benchServeParallel(b, hot, par, socket) })
			}
		}
	}
}

func benchServeParallel(b *testing.B, hot bool, par int, socket bool) {
	goroutines := par * runtime.GOMAXPROCS(0)
	cfg, bgE, bgP := durableConfig(b, b.TempDir(), func(cfg *Config) {
		cfg.MaxTenants = goroutines + 1
		cfg.CompactInterval = time.Hour // no scan-driven snapshot inside the timed loop
	})
	srv, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	tenants := make([]string, goroutines)
	for i := range tenants {
		tenants[i] = DefaultTenantID
		if !hot {
			tenants[i] = fmt.Sprintf("p%03d", i)
		}
	}
	sent := make(map[string]*atomic.Int64, goroutines)
	for _, id := range tenants {
		sent[id] = new(atomic.Int64)
	}

	// do sends one request for tenant and returns its status and body.
	var do func(method, path, tenant, body string) (int, string)
	if socket {
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()
		client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: goroutines}}
		defer client.CloseIdleConnections()
		do = func(method, path, tenant, body string) (int, string) {
			req, err := http.NewRequest(method, ts.URL+path, strings.NewReader(body))
			if err != nil {
				return 0, err.Error()
			}
			req.Header.Set(TenantHeader, tenant)
			resp, err := client.Do(req)
			if err != nil {
				return 0, err.Error()
			}
			defer resp.Body.Close()
			out, err := io.ReadAll(resp.Body)
			if err != nil {
				return 0, err.Error()
			}
			return resp.StatusCode, string(out)
		}
	} else {
		h := srv.Handler()
		do = func(method, path, tenant, body string) (int, string) {
			rec := httptest.NewRecorder()
			req := httptest.NewRequest(method, path, strings.NewReader(body))
			req.Header.Set(TenantHeader, tenant)
			h.ServeHTTP(rec, req)
			return rec.Code, rec.Body.String()
		}
	}

	const benign = `{"employee_id":0,"patient_id":0}`
	alert := fmt.Sprintf(`{"employee_id":%d,"patient_id":%d}`, bgE, bgP)
	// Every tenant exists before the clock starts: creating one opens its
	// journal, which is boot's cost, not serving's.
	for id, n := range sent {
		if code, body := do(http.MethodPost, "/v1/access", id, benign); code != http.StatusOK {
			b.Fatalf("tenant %s: warm-up access: %d %s", id, code, body)
		}
		n.Add(1)
	}

	var next atomic.Int64
	before := srv.Metrics().Snapshot()
	b.SetParallelism(par)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		tenant := tenants[next.Add(1)-1]
		count := sent[tenant]
		for k := 1; pb.Next(); k++ {
			body := benign
			if k%32 == 0 {
				body = alert
			}
			code, resp := do(http.MethodPost, "/v1/access", tenant, body)
			count.Add(1)
			if code != http.StatusOK {
				b.Errorf("tenant %s: access answered %d: %s", tenant, code, resp)
				return
			}
		}
	})
	b.StopTimer()
	if b.Failed() {
		return
	}
	after := srv.Metrics().Snapshot()

	appends := counterSum(after, wal.MetricAppendsTotal) - counterSum(before, wal.MetricAppendsTotal)
	fsyncs := after.Histograms[wal.MetricFsyncSeconds].Count - before.Histograms[wal.MetricFsyncSeconds].Count
	if fsyncs > 0 {
		b.ReportMetric(float64(appends)/float64(fsyncs), "appends/fsync")
	}
	b.ReportMetric(float64(fsyncs)/float64(b.N), "fsyncs/op")

	for id, n := range sent {
		code, body := do(http.MethodGet, "/v1/status", id, "")
		if want := fmt.Sprintf(`"accesses":%d,`, n.Load()); code != http.StatusOK || !strings.Contains(body, want) {
			b.Fatalf("tenant %s: status %d %s, want %s", id, code, body, want)
		}
	}
}

// counterSum adds every series of the counter family name.
func counterSum(s obs.Snapshot, name string) uint64 {
	var sum uint64
	for id, v := range s.Counters {
		if id == name || strings.HasPrefix(id, name+"{") {
			sum += v
		}
	}
	return sum
}
