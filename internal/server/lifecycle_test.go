package server

import (
	"context"
	"net"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"github.com/auditgames/sag/internal/alerts"
	"github.com/auditgames/sag/internal/core"
	"github.com/auditgames/sag/internal/emr"
	"github.com/auditgames/sag/internal/sim"
)

func TestHealthAndReadiness(t *testing.T) {
	srv, ts, _, _ := fixture(t)

	var probe struct {
		Status string `json:"status"`
	}
	if code := get(t, ts, "/v1/healthz", &probe); code != http.StatusOK || probe.Status != "ok" {
		t.Fatalf("healthz = %d %q, want 200 ok", code, probe.Status)
	}
	if code := get(t, ts, "/v1/readyz", &probe); code != http.StatusOK || probe.Status != "ready" {
		t.Fatalf("readyz = %d %q, want 200 ready", code, probe.Status)
	}

	srv.SetReady(false)
	if code := get(t, ts, "/v1/readyz", &probe); code != http.StatusServiceUnavailable || probe.Status != "draining" {
		t.Fatalf("draining readyz = %d %q, want 503 draining", code, probe.Status)
	}
	// Liveness is not readiness: the process is still up.
	if code := get(t, ts, "/v1/healthz", &probe); code != http.StatusOK {
		t.Fatalf("healthz while draining = %d, want 200", code)
	}
	srv.SetReady(true)
	if code := get(t, ts, "/v1/readyz", &probe); code != http.StatusOK {
		t.Fatalf("readyz after re-ready = %d, want 200", code)
	}
}

// failingEstimatorFixture builds a server whose estimator always errors, so
// every gamed alert exercises the engine's degradation ladder end to end
// through the HTTP path.
func failingEstimatorFixture(t *testing.T) (*httptest.Server, int, int) {
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
	srv, err := New(Config{
		World:    world,
		Taxonomy: alerts.NewTable1Taxonomy(),
		TypeIDs:  sim.AllTable1TypeIDs(),
		Instance: inst,
		Budget:   50,
		Estimator: core.EstimatorFunc(func(time.Duration) ([]float64, error) {
			return nil, context.DeadlineExceeded
		}),
		Seed:  1,
		Clock: func() time.Duration { return 9 * time.Hour },
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts, bgE, bgP
}

func TestAccessDegradesInsteadOf500(t *testing.T) {
	ts, bgE, bgP := failingEstimatorFixture(t)
	var resp AccessResponse
	code := post(t, ts, "/v1/access", AccessRequest{EmployeeID: bgE, PatientID: bgP}, &resp)
	if code != http.StatusOK {
		t.Fatalf("access with broken estimator = %d, want 200 (degraded)", code)
	}
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
	srv, _, _, _ := fixture(t)
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
	resp, err := http.Get("http://" + mainAddr.String() + "/v1/healthz")
	if err != nil {
		t.Fatalf("main listener: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d, want 200", resp.StatusCode)
	}
	resp, err = http.Get("http://" + dbgAddr.String() + "/")
	if err != nil {
		t.Fatalf("debug listener: %v", err)
	}
	resp.Body.Close()

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
	if _, err := http.Get("http://" + mainAddr.String() + "/v1/healthz"); err == nil {
		t.Fatal("main listener still serving after shutdown")
	}
}

func TestRunListenError(t *testing.T) {
	srv, _, _, _ := fixture(t)
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
