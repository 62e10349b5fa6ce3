package server

import (
	"context"
	"net"
	"net/http"
	"sync/atomic"
	"testing"
	"time"

	"github.com/auditgames/sag/internal/core"
)

func TestHealthAndReadiness(t *testing.T) {
	srv, ts, _, _ := testServer(t)

	probe := func(path string, wantCode int, wantStatus string) {
		t.Helper()
		code, body, _ := do(t, ts.URL, "GET", path, "", nil)
		if got := decode[readyzBody](t, body).Status; code != wantCode || wantStatus != "" && got != wantStatus {
			t.Fatalf("GET %s = %d %q, want %d %q", path, code, got, wantCode, wantStatus)
		}
	}
	probe("/v1/healthz", http.StatusOK, "ok")
	probe("/v1/readyz", http.StatusOK, "ready")

	srv.SetReady(false)
	probe("/v1/readyz", http.StatusServiceUnavailable, "draining")
	// Liveness is not readiness: the process is still up.
	probe("/v1/healthz", http.StatusOK, "")
	srv.SetReady(true)
	probe("/v1/readyz", http.StatusOK, "")
}

func TestAccessDegradesInsteadOf500(t *testing.T) {
	// The estimator always errors, so every gamed alert takes the engine's
	// degradation ladder end to end through the HTTP path.
	_, ts, bgE, bgP := testServer(t, func(cfg *Config) {
		cfg.Estimator = core.EstimatorFunc(func(time.Duration) ([]float64, error) { return nil, context.DeadlineExceeded })
	})
	code, body, _ := do(t, ts.URL, "POST", "/v1/access", "", AccessRequest{EmployeeID: bgE, PatientID: bgP})
	if code != http.StatusOK {
		t.Fatalf("access with broken estimator = %d, want 200 (degraded)", code)
	}
	resp := decode[AccessResponse](t, body)
	if !resp.Alert {
		t.Fatal("planted pair did not alert")
	}
	if resp.Fallback != "static" {
		t.Fatalf("Fallback = %q, want static (no prior state to reuse)", resp.Fallback)
	}
	if resp.Warn {
		t.Fatal("static degraded decision must never warn")
	}
}

func TestRunGracefulShutdown(t *testing.T) {
	srv, _, _, _ := testServer(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	addrCh := make(chan net.Addr, 2)
	var drained, shutdown atomic.Bool
	done := make(chan error, 1)
	go func() {
		done <- Run(ctx, RunConfig{
			Addr:          "127.0.0.1:0",
			Handler:       srv.Handler(),
			DebugAddr:     "127.0.0.1:0",
			DebugHandler:  srv.Metrics().Handler(),
			ShutdownGrace: 5 * time.Second,
			OnListen:      func(a net.Addr) { addrCh <- a },
			OnDrainStart: func() {
				srv.SetReady(false)
				drained.Store(true)
			},
			OnShutdown: func() { shutdown.Store(true) },
		})
	}()
	mainAddr, dbgAddr := <-addrCh, <-addrCh

	// Both listeners serve while running.
	if code, _, _ := do(t, "http://"+mainAddr.String(), "GET", "/v1/healthz", "", nil); code != http.StatusOK {
		t.Fatalf("main listener: healthz = %d, want 200", code)
	}
	if code, _, _ := do(t, "http://"+dbgAddr.String(), "GET", "/", "", nil); code == 0 {
		t.Fatal("debug listener did not answer")
	}

	// Shutdown: Run must drain both listeners and return nil within grace.
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Run returned %v, want nil on clean drain", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Run did not return within the grace period")
	}
	if !drained.Load() || !shutdown.Load() {
		t.Fatalf("lifecycle hooks: drain=%v shutdown=%v, want both true", drained.Load(), shutdown.Load())
	}
	if conn, err := net.Dial("tcp", mainAddr.String()); err == nil {
		conn.Close()
		t.Fatal("main listener still serving after shutdown")
	}
}

func TestRunListenError(t *testing.T) {
	srv, _, _, _ := testServer(t)
	// Occupy a port, then ask Run to bind it.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	if err := Run(context.Background(), RunConfig{
		Addr:    ln.Addr().String(),
		Handler: srv.Handler(),
	}); err == nil {
		t.Fatal("Run on an occupied port must error")
	}
}
