package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestEvictionVsTrafficRace hammers a durable tenant with concurrent access
// traffic while another goroutine evicts it in a tight loop. The invariants:
// every request completes with a full 200 response (no partial engine is
// ever observable — eviction drains in-flight holders and later requests
// rebuild the tenant from its journal), and no acked commit is lost — the
// final /v1/status access counter equals the number of 200s, surviving a
// last restart on top of that.
func TestEvictionVsTrafficRace(t *testing.T) {
	dir := t.TempDir()
	srv, ts, bgE, bgP := durableFixture(t, dir)

	const workers = 8
	const perWorker = 25
	var ok200 atomic.Int64
	var wg sync.WaitGroup
	body, err := json.Marshal(AccessRequest{EmployeeID: bgE, PatientID: bgP})
	if err != nil {
		t.Fatal(err)
	}
	errs := make(chan error, workers*perWorker)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				resp, err := http.Post(ts.URL+"/v1/access", "application/json", bytes.NewReader(body))
				if err != nil {
					errs <- err
					return
				}
				raw, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errs <- &statusError{code: resp.StatusCode, body: string(raw)}
					return
				}
				var out AccessResponse
				decErr := json.Unmarshal(raw, &out)
				if decErr != nil {
					errs <- decErr // a torn body would mean a partially-built engine answered
					return
				}
				ok200.Add(1)
			}
		}()
	}

	stop := make(chan struct{})
	var evictions atomic.Int64
	var evictWG sync.WaitGroup
	evictWG.Add(1)
	go func() {
		defer evictWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if srv.RemoveTenant(DefaultTenantID) {
				evictions.Add(1)
			}
			time.Sleep(time.Millisecond)
		}
	}()

	wg.Wait()
	close(stop)
	evictWG.Wait()
	close(errs)
	for err := range errs {
		t.Errorf("worker: %v", err)
	}
	if t.Failed() {
		t.FailNow()
	}
	if evictions.Load() == 0 {
		t.Fatal("the eviction loop never won the race; the test exercised nothing")
	}

	var st Status
	if code := get(t, ts, "/v1/status", &st); code != http.StatusOK {
		t.Fatalf("status after race: %d", code)
	}
	if int64(st.Accesses) != ok200.Load() {
		t.Fatalf("tenant counted %d accesses, but %d were acked with 200 (evictions: %d)",
			st.Accesses, ok200.Load(), evictions.Load())
	}

	// A fresh process over the same dir must agree: every acked access was
	// journaled before its 200 left the building. Seal the first server's
	// journal before the second one opens it.
	if !srv.RemoveTenant(DefaultTenantID) {
		t.Fatal("tenant not resident after status read")
	}
	_, ts2, _, _ := durableFixture(t, dir)
	var st2 Status
	if code := get(t, ts2, "/v1/status", &st2); code != http.StatusOK {
		t.Fatalf("status after restart: %d", code)
	}
	if st2.Accesses != st.Accesses {
		t.Fatalf("restart lost acked accesses: %d on disk, %d acked", st2.Accesses, st.Accesses)
	}
}

type statusError struct {
	code int
	body string
}

func (e *statusError) Error() string { return http.StatusText(e.code) + ": " + e.body }
