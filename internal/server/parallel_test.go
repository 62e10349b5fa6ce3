package server

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"runtime"
	"strings"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"github.com/auditgames/sag/internal/wal"
)

// BenchmarkServeParallel drives a durable server (-fsync always) from
// b.RunParallel with 31 benign accesses to one planted alert. Its arms are
// disjoint (each goroutine owns a tenant) or hot (every goroutine on one
// tenant), at parallelism 1, 8 and 32, over a real socket or straight into
// Server.Handler, so socket cost is the difference of two measurements. From
// the server's own registry it reports the group-commit yield (appends/fsync)
// and fsyncs/op, and from getrusage(2) the process's user + system CPU per
// request (cpu-µs/op) — in the socket arms the HTTP client runs in this
// process too, so its CPU is in that column. It is a correctness run too:
// every response must be 200 and alert exactly on the planted request, with
// no fallback and a remaining budget that never rises along a goroutine's
// requests (a subsequence of its tenant's commits), and each tenant's
// /v1/status must count exactly the accesses and alerts sent to it.
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
	srv, ts, bgE, bgP := testServer(b, durableIn(b.TempDir()), func(cfg *Config) {
		cfg.MaxTenants = goroutines + 1
		cfg.CompactInterval = time.Hour // no scan-driven snapshot inside the timed loop
	})
	defer srv.Close()
	tenants := make([]string, goroutines)
	for i := range tenants {
		tenants[i] = DefaultTenantID
		if !hot {
			tenants[i] = fmt.Sprintf("p%03d", i)
		}
	}
	sent := make(map[string]*atomic.Int64, goroutines)
	alerted := make(map[string]*atomic.Int64, goroutines)
	for _, id := range tenants {
		sent[id], alerted[id] = new(atomic.Int64), new(atomic.Int64)
	}

	// send sends one request for tenant and returns its status and body.
	var send func(method, path, tenant, body string) (int, string)
	if socket {
		client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: goroutines}}
		defer client.CloseIdleConnections()
		send = func(method, path, tenant, body string) (int, string) {
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
		send = func(method, path, tenant, body string) (int, string) {
			code, out, _ := do(b, h, method, path, tenant, body)
			return code, out
		}
	}

	const benign = `{"employee_id":0,"patient_id":0}`
	alert := fmt.Sprintf(`{"employee_id":%d,"patient_id":%d}`, bgE, bgP)
	// Every tenant exists before the clock starts: creating one opens its
	// journal, which is boot's cost, not serving's.
	for id, n := range sent {
		if code, body := send(http.MethodPost, "/v1/access", id, benign); code != http.StatusOK {
			b.Fatalf("tenant %s: warm-up access: %d %s", id, code, body)
		}
		n.Add(1)
	}

	var next atomic.Int64
	before, cpuBefore := scrape(b, srv, wal.MetricAppendsTotal, wal.MetricFsyncSeconds+"_count"), cpuTime(b)
	b.SetParallelism(par)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		tenant := tenants[next.Add(1)-1]
		count, alerts := sent[tenant], alerted[tenant]
		budget := math.Inf(1)
		for k := 1; pb.Next(); k++ {
			body, planted := benign, k%32 == 0
			if planted {
				body = alert
				alerts.Add(1)
			}
			code, resp := send(http.MethodPost, "/v1/access", tenant, body)
			count.Add(1)
			if code != http.StatusOK {
				b.Errorf("tenant %s: access answered %d: %s", tenant, code, resp)
				return
			}
			var a AccessResponse
			if err := json.Unmarshal([]byte(resp), &a); err != nil || a.Alert != planted || a.Fallback != "" || a.RemainingBudget > budget {
				b.Errorf("tenant %s: access %s answered %s (decode error %v; want alert %v, no fallback, remaining_budget at most %v)",
					tenant, body, resp, err, planted, budget)
				return
			}
			budget = a.RemainingBudget
		}
	})
	b.StopTimer()
	if b.Failed() {
		return
	}
	cpu := cpuTime(b) - cpuBefore
	after := scrape(b, srv, wal.MetricAppendsTotal, wal.MetricFsyncSeconds+"_count")

	var appends float64
	for id := range sent {
		appends += after[wal.MetricAppendsTotal+`{tenant="`+id+`"}`] - before[wal.MetricAppendsTotal+`{tenant="`+id+`"}`]
	}
	fsyncs := after[wal.MetricFsyncSeconds+"_count"] - before[wal.MetricFsyncSeconds+"_count"]
	if fsyncs > 0 {
		b.ReportMetric(appends/fsyncs, "appends/fsync")
	}
	b.ReportMetric(fsyncs/float64(b.N), "fsyncs/op")
	b.ReportMetric(float64(cpu.Microseconds())/float64(b.N), "cpu-µs/op")

	for id, n := range sent {
		code, body := send(http.MethodGet, "/v1/status", id, "")
		var st Status
		if err := json.Unmarshal([]byte(body), &st); err != nil || code != http.StatusOK ||
			int64(st.Accesses) != n.Load() || int64(st.Alerts) != alerted[id].Load() {
			b.Fatalf("tenant %s: status %d %s, want accesses %d and alerts %d", id, code, body, n.Load(), alerted[id].Load())
		}
	}
}

// cpuTime is the user plus system CPU time the process has used so far.
func cpuTime(b *testing.B) time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		b.Fatal(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
