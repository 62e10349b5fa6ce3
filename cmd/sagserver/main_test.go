package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/auditgames/sag/internal/core"
	"github.com/auditgames/sag/internal/server"
	"github.com/auditgames/sag/internal/wal"
)

// TestTenantsShareOneEstimator serves two tenants from the configuration
// sagserver assembles, which gives both one knowledge-rollback estimator,
// and requires that nothing alice does — concurrent traffic, a restore after
// a restart, a /v1/cycle/new — changes a byte of what bob is answered. The
// estimator holds no state: each engine keeps the estimate its evening
// decisions freeze on, so alice's restore cannot rewind bob's freeze point
// nor her new cycle reset it, and under -race the concurrent morning reports
// no unsynchronized write.
func TestTenantsShareOneEstimator(t *testing.T) {
	const employees, patients = 80, 400
	base, err := gameConfig(2017, employees, patients, 12, 30)
	if err != nil {
		t.Fatal(err)
	}
	const morning, afternoon, evening = 9 * time.Hour, 15 * time.Hour, 23*time.Hour + 30*time.Minute
	am, _ := base.Estimator.FutureRates(morning)
	pm, err := base.Estimator.FutureRates(afternoon)
	_, keep := base.Estimator.FutureRates(evening)
	if slices.Equal(am, pm) || err != nil || !errors.Is(keep, core.ErrKeepEstimate) {
		t.Fatal("fixture: the rollback must engage between the afternoon and the evening queries")
	}
	var clock atomic.Int64
	base.Clock = func() time.Duration { return time.Duration(clock.Load()) }
	base.Fsync = wal.FsyncNone

	// bobsDay returns every response bob gets over one scripted day.
	bobsDay := func(withAlice bool) []string {
		cfg := base
		cfg.DataDir = t.TempDir()
		var ts *httptest.Server
		// boot serves cfg's data dir and returns the clean shutdown.
		boot := func() (shutdown func()) {
			srv, err := server.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			ts = httptest.NewServer(srv.Handler())
			return func() {
				ts.Close()
				if err := srv.Close(); err != nil {
					t.Error(err)
				}
			}
		}
		shutdown := boot()
		defer func() { shutdown() }()
		call := func(method, path string, body any) string {
			raw, err := json.Marshal(body)
			if err != nil {
				t.Error(err)
				return ""
			}
			req, err := http.NewRequest(method, ts.URL+path, bytes.NewReader(raw))
			if err != nil {
				t.Error(err)
				return ""
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Error(err)
				return ""
			}
			defer resp.Body.Close()
			out, err := io.ReadAll(resp.Body)
			if err != nil || resp.StatusCode != http.StatusOK {
				t.Errorf("%s %s: status %d, %v: %s", method, path, resp.StatusCode, err, out)
			}
			return string(out)
		}
		// The first planted employee/patient pair shares a last name.
		access := func(tenant string) string {
			return call(http.MethodPost, "/v1/access", server.AccessRequest{EmployeeID: employees, PatientID: patients, Tenant: tenant})
		}

		var bob []string
		clock.Store(int64(morning))
		var wg sync.WaitGroup
		if withAlice {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 20; i++ {
					access("alice")
				}
			}()
		}
		for i := 0; i < 20; i++ {
			bob = append(bob, access("bob"))
		}
		wg.Wait()
		// A restart snapshots both tenants in the morning, and the next boot
		// restores both: only bob works the afternoon, so only his kept
		// estimate moves on.
		shutdown()
		shutdown = boot()
		clock.Store(int64(afternoon))
		bob = append(bob, access("bob"))
		clock.Store(int64(evening))
		bob = append(bob, access("bob"))
		if withAlice {
			call(http.MethodGet, "/v1/status?tenant=alice", nil) // reads her restored state
		}
		bob = append(bob, access("bob"))
		if withAlice {
			call(http.MethodPost, "/v1/cycle/new", server.NewCycleRequest{Budget: 30, Tenant: "alice"})
		}
		bob = append(bob, access("bob"))
		return bob
	}

	alone, together := bobsDay(false), bobsDay(true)
	for i := range alone {
		if alone[i] != together[i] {
			t.Fatalf("bob's response %d changed when alice shared the server:\n alone    %s together %s", i, alone[i], together[i])
		}
	}
}
