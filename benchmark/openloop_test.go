package main

import (
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// benignOnly is a workload whose every request is a background access, so a
// stub server can answer all of them correctly with one body.
var benignOnly = &workload{Name: "stub", Tenants: 1, Mix: mix{benign: 1}, CycleAlerts: 1 << 30}

func stubServer(t *testing.T, service time.Duration) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(service)
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write([]byte(`{"alert":false,"warn":false,"remaining_budget":50}` + "\n"))
	}))
	t.Cleanup(srv.Close)
	return srv
}

// A server that needs 5 ms per request, offered one request per millisecond
// on one connection: request k is due at k ms but cannot leave before
// 5k ms. The open loop must charge that wait to the request — latency
// counts from the due time — and report it as the generator's lag.
func TestOpenLoopChargesLatenessFromTheDueTime(t *testing.T) {
	const service = 5 * time.Millisecond
	srv := stubServer(t, service)
	c := newConn(srv.URL)
	defer c.close()
	c.tenants = []*tenantRun{newTenantRun(benignOnly, 1, 0)}
	c.t0 = time.Now()
	c.runOpen(0, 1, []rateStep{{Rate: 1000, Share: 1}}, 0.02) // 20 requests due over 20 ms

	if len(c.samples) != 20 {
		t.Fatalf("%d samples, want 20 (every due request is sent, however late)", len(c.samples))
	}
	if c.failed != 0 {
		t.Fatalf("%d requests failed: %v", c.failed, c.tenants[0].failures)
	}
	for k, s := range c.samples {
		if s.late < 0 {
			t.Errorf("request %d left %v early", k, -s.late)
		}
		// Sent at >= k*service, due at k ms.
		if floor := time.Duration(k) * (service - time.Millisecond); s.late < floor {
			t.Errorf("request %d: lag %v, want at least %v", k, s.late, floor)
		}
		if s.lat < s.late+service {
			t.Errorf("request %d: latency %v does not include its lag %v plus the %v service time", k, s.lat, s.late, service)
		}
	}
	if first, last := c.samples[0], c.samples[19]; last.late <= first.late+50*time.Millisecond {
		t.Errorf("backlog did not grow: first lag %v, last lag %v", first.late, last.late)
	}
}

// When the server keeps up, sends leave on schedule and latency is the
// service time, not the schedule's.
func TestOpenLoopOnScheduleWhenTheServerKeepsUp(t *testing.T) {
	srv := stubServer(t, 0)
	conns := []*conn{newConn(srv.URL), newConn(srv.URL)}
	t0 := time.Now()
	done := make(chan struct{})
	for i, c := range conns {
		c.tenants = []*tenantRun{newTenantRun(benignOnly, 1, i)}
		c.t0 = t0
		go func(i int, c *conn) {
			c.runOpen(i, 2, []rateStep{{Rate: 200, Share: 0.5}, {Rate: 400, Share: 0.5}}, 0.2)
			done <- struct{}{}
		}(i, c)
	}
	<-done
	<-done
	total := 0
	for i, c := range conns {
		defer c.close()
		total += len(c.samples)
		steps := [2]int{}
		for k, s := range c.samples {
			steps[s.step]++
			if s.late < 0 {
				t.Errorf("conn %d request %d left %v before it was due", i, k, -s.late)
			}
		}
		// 0.1 s at 200/s then 0.1 s at 400/s, split over two connections.
		if steps[0] != 10 || steps[1] != 20 {
			t.Errorf("conn %d sent %v requests per step, want [10 20]", i, steps)
		}
	}
	if total != 60 {
		t.Errorf("sent %d requests, want 60", total)
	}
	if elapsed := time.Since(t0); elapsed < 190*time.Millisecond {
		t.Errorf("the schedule finished in %v, before its 200 ms were up", elapsed)
	}
}

// The closed loop sends the next request only after the previous answer.
func TestClosedLoopRunsToTheDeadlineAndMinOps(t *testing.T) {
	srv := stubServer(t, time.Millisecond)
	c := newConn(srv.URL)
	defer c.close()
	c.tenants = []*tenantRun{newTenantRun(benignOnly, 1, 0), newTenantRun(benignOnly, 1, 1)}
	c.t0 = time.Now()
	c.runClosed(c.t0, 5) // deadline already past: only the floor keeps it going
	for i, tn := range c.tenants {
		if len(tn.sent) != 5 {
			t.Errorf("tenant %d sent %d requests, want exactly the floor of 5", i, len(tn.sent))
		}
		if tn.tally.Accesses != 5 {
			t.Errorf("tenant %d tallied %d accesses, want 5", i, tn.tally.Accesses)
		}
	}
}
