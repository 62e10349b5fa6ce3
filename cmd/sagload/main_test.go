package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"github.com/auditgames/sag/internal/admit"
	"github.com/auditgames/sag/internal/server"
)

// TestSelfServerTenantFanOut stands up the -self server sized for a
// 2-tenant fan-out and checks the load generator's contract with it: the
// fan-out tenants are admitted and answer planted-pair alerts, and a
// tenant beyond the sized cap is refused with 429 instead of silently
// landing in another tenant's cycle.
func TestSelfServerTenantFanOut(t *testing.T) {
	ts, bgE, bgP, err := selfServer(1e9, 2, admit.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer ts.Close()

	body, err := json.Marshal(server.AccessRequest{EmployeeID: bgE, PatientID: bgP})
	if err != nil {
		t.Fatal(err)
	}
	post := func(tenant string) int {
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/access", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		if tenant != "" {
			req.Header.Set(server.TenantHeader, tenant)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out server.AccessResponse
		if resp.StatusCode == http.StatusOK {
			if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
				t.Fatal(err)
			}
			if !out.Alert {
				t.Fatalf("tenant %q: planted pair did not alert", tenant)
			}
		}
		return resp.StatusCode
	}

	for _, tenant := range []string{"", "load-0", "load-1"} {
		if code := post(tenant); code != http.StatusOK {
			t.Fatalf("tenant %q: status %d", tenant, code)
		}
	}
	// maxTenants(2) = 3 residents: default + the two fan-out tenants. A
	// fourth distinct tenant must be refused, not absorbed.
	if code := post("load-2"); code != http.StatusTooManyRequests {
		t.Fatalf("over-cap tenant admitted with status %d, want 429", code)
	}
}

// TestOverloadRefusesShapeThatCannotShed: closed-loop clients that all fit in
// the slots plus the queue can never be turned away, so the -self -overload
// arm refuses the shape instead of printing a 0 % shed "rehearsal".
func TestOverloadRefusesShapeThatCannotShed(t *testing.T) {
	for _, tc := range []struct {
		name            string
		workers, polite int
		adm             admit.Config
		refused         bool
	}{
		{"8 workers + 3 polite in 4 slots + 8 queued", 8, 3, admit.Config{MaxInflight: 4, QueueDepth: 8}, true},
		{"exactly as many clients as places", 9, 3, admit.Config{MaxInflight: 4, QueueDepth: 8}, true},
		{"one client more than places", 10, 3, admit.Config{MaxInflight: 4, QueueDepth: 8}, false},
		{"the documented shape", 32, 3, admit.Config{MaxInflight: 4, QueueDepth: 8}, false},
		{"no admission control at all", 32, 3, admit.Config{}, true},
	} {
		if err := overloadCanShed(tc.workers, tc.polite, tc.adm); (err != nil) != tc.refused {
			t.Errorf("%s: err = %v, want refused = %v", tc.name, err, tc.refused)
		}
	}
}

func TestMaxTenants(t *testing.T) {
	if got := maxTenants(0); got != 0 {
		t.Fatalf("maxTenants(0) = %d, want 0 (shard default)", got)
	}
	if got := maxTenants(8); got != 9 {
		t.Fatalf("maxTenants(8) = %d, want 9", got)
	}
}

// TestTransientErr pins the retry filter: transport-level failures a
// restarting or failing-over server produces are retryable, everything
// else (including nil) is not.
func TestTransientErr(t *testing.T) {
	for _, err := range []error{
		syscall.ECONNREFUSED,
		syscall.ECONNRESET,
		syscall.EPIPE,
		io.EOF,
		io.ErrUnexpectedEOF,
		fmt.Errorf("wrapped: %w", syscall.ECONNREFUSED),
		&net.OpError{Op: "dial", Err: errors.New("no route")},
		&net.OpError{Op: "read", Err: errors.New("timeout")},
		&url.Error{Op: "Post", URL: "http://x", Err: &net.OpError{Op: "dial", Err: errors.New("refused")}},
	} {
		if !transientErr(err) {
			t.Errorf("transientErr(%v) = false, want true", err)
		}
	}
	for _, err := range []error{
		nil,
		errors.New("bad request"),
		&net.OpError{Op: "write", Err: errors.New("shut down")},
		context.Canceled,
	} {
		if transientErr(err) {
			t.Errorf("transientErr(%v) = true, want false", err)
		}
	}
}

// TestBackoffDelay pins the envelope: exponential from 50ms, capped at 2s,
// jittered by at most +50%, and safe for absurd attempt numbers.
func TestBackoffDelay(t *testing.T) {
	base := 50 * time.Millisecond
	for attempt := 1; attempt <= 20; attempt++ {
		want := base << min(attempt-1, 10)
		if want > 2*time.Second || want <= 0 {
			want = 2 * time.Second
		}
		for i := 0; i < 10; i++ {
			got := backoffDelay(attempt)
			if got < want || got > want+want/2 {
				t.Fatalf("backoffDelay(%d) = %v, want in [%v, %v]", attempt, got, want, want+want/2)
			}
		}
	}
	if got := backoffDelay(1 << 30); got < 2*time.Second || got > 3*time.Second {
		t.Fatalf("huge attempt: %v outside the cap envelope", got)
	}
}

func TestSleepInterruptibleStops(t *testing.T) {
	var stop atomic.Bool
	stop.Store(true)
	t0 := time.Now()
	sleepInterruptible(time.Minute, &stop)
	if d := time.Since(t0); d > 5*time.Second {
		t.Fatalf("stopped sleep still took %v", d)
	}
}

func TestPct(t *testing.T) {
	lat := []time.Duration{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got := pct(lat, 0.50); got != 5 {
		t.Fatalf("p50 = %v, want 5", got)
	}
	if got := pct(lat, 1.0); got != 10 {
		t.Fatalf("p100 = %v, want 10", got)
	}
	if got := pct(lat[:1], 0.99); got != 1 {
		t.Fatalf("single-sample p99 = %v, want 1", got)
	}
}
