package server

import (
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"testing"
	"time"

	"github.com/auditgames/sag/internal/admit"
	"github.com/auditgames/sag/internal/obs"
	"github.com/auditgames/sag/internal/retain"
	"github.com/auditgames/sag/internal/shard"
)

var integerRE = regexp.MustCompile(`^[0-9]+$`)

// checkRetryHeaders asserts the RFC 9110 contract: Retry-After is whole
// delta-seconds (no decimals — the bug this PR fixes), and the precise
// millisecond hint rides in X-SAG-Retry-After-Ms, consistent with it.
func checkRetryHeaders(t *testing.T, h http.Header) {
	t.Helper()
	ra := h.Get("Retry-After")
	ms := h.Get(RetryAfterMsHeader)
	if ra == "" || ms == "" {
		t.Fatalf("missing retry headers: Retry-After=%q %s=%q", ra, RetryAfterMsHeader, ms)
	}
	if !integerRE.MatchString(ra) {
		t.Fatalf("Retry-After %q is not integer delta-seconds (RFC 9110 §10.2.3)", ra)
	}
	if !integerRE.MatchString(ms) {
		t.Fatalf("%s %q is not integer milliseconds", RetryAfterMsHeader, ms)
	}
	sec, _ := strconv.ParseInt(ra, 10, 64)
	msec, _ := strconv.ParseInt(ms, 10, 64)
	if sec < 1 {
		t.Fatalf("Retry-After %d < 1: clients would hammer immediately", sec)
	}
	if msec > sec*1000 {
		t.Fatalf("precise hint %dms exceeds coarse Retry-After %ds", msec, sec)
	}
}

func dirBytes(t *testing.T, root string) int64 {
	t.Helper()
	var total int64
	err := filepath.Walk(root, func(_ string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if !info.IsDir() {
			total += info.Size()
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return total
}

func TestDiskBudgetRequiresDataDir(t *testing.T) {
	_, err := New(Config{DiskBudgetBytes: 1 << 20})
	if err == nil {
		t.Fatal("New accepted a disk budget without a data dir")
	}
}

// TestReadPathsDoNotCreateTenants is the create-on-read regression test: a
// GET against a tenant that does not exist must answer 404 and leave the
// tenant-creation counter untouched (reads used to be able to materialize a
// tenant, spending engine build work on a typo).
func TestReadPathsDoNotCreateTenants(t *testing.T) {
	reg := obs.NewRegistry()
	srv, _, _ := fixtureWithRegistry(t, reg)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	createdKey := shard.MetricTenantsCreatedTotal
	before := reg.Snapshot().Counters[createdKey]
	if before == 0 {
		t.Fatal("fixture created no tenants; counter wiring broken")
	}

	for _, path := range []string{
		"/v1/status?tenant=ghost",
		"/v1/cycle/summary?tenant=ghost",
	} {
		if code := get(t, ts, path, nil); code != http.StatusNotFound {
			t.Fatalf("GET %s = %d, want 404 for an unknown tenant", path, code)
		}
	}
	// Header routing takes the same no-create path.
	req, err := http.NewRequest(http.MethodGet, ts.URL+"/v1/status", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(TenantHeader, "ghost")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("header-routed GET /v1/status = %d, want 404", resp.StatusCode)
	}

	if after := reg.Snapshot().Counters[createdKey]; after != before {
		t.Fatalf("read-only requests created tenants: %s %d -> %d", createdKey, before, after)
	}
	// Mutations still create: the counter moves when a write names a new
	// tenant.
	post(t, ts, "/v1/access", AccessRequest{Tenant: "real", EmployeeID: 0, PatientID: 0}, nil)
	if after := reg.Snapshot().Counters[createdKey]; after != before+1 {
		t.Fatalf("mutation did not create the tenant: %s %d -> %d", createdKey, before, after)
	}
}

// TestShedRetryAfterIsSpecValid drives the admission shedder into a 503 and
// checks both retry headers on the way out.
func TestShedRetryAfterIsSpecValid(t *testing.T) {
	srv, ts, bgE, bgP := replicaFixture(t, t.TempDir(), nil, func(cfg *Config) {
		cfg.Admission = admit.Config{Rate: 0.01, Burst: 1}
	})
	defer srv.Close()

	shed := false
	for i := 0; i < 5; i++ {
		code, _, hdr := postRaw(t, ts, "/v1/access", AccessRequest{EmployeeID: bgE, PatientID: bgP})
		if code == http.StatusServiceUnavailable {
			checkRetryHeaders(t, hdr)
			shed = true
			break
		}
	}
	if !shed {
		t.Fatal("rate limiter never shed; cannot check headers")
	}
}

// TestDiskPressureAnswers507 pins the backpressure contract: with the box
// over its disk budget and the tenant holding nothing reclaimable, mutations
// answer 507 with both retry headers — but the paths that make bytes
// reclaimable (cycle close/new, snapshot) and all reads stay open.
func TestDiskPressureAnswers507(t *testing.T) {
	reg := obs.NewRegistry()
	srv, ts, bgE, bgP := replicaFixture(t, t.TempDir(), nil, func(cfg *Config) {
		cfg.Metrics = reg
		cfg.SegmentBytes = 256
		cfg.DiskBudgetBytes = 1 // hopelessly over: even an empty journal exceeds it
		cfg.CompactInterval = time.Hour
	})
	defer srv.Close()

	// Deterministic verdict: run a scan round synchronously instead of
	// racing the background loop's startup scan.
	srv.retain.RunOnce()
	if _, blocked := srv.retain.Blocked(DefaultTenantID); !blocked {
		t.Fatal("tenant not blocked with a 1-byte budget and no reclaimable segments")
	}

	code, _, hdr := postRaw(t, ts, "/v1/access", AccessRequest{EmployeeID: bgE, PatientID: bgP})
	if code != http.StatusInsufficientStorage {
		t.Fatalf("mutation under disk pressure = %d, want 507", code)
	}
	checkRetryHeaders(t, hdr)

	// Reads are never disk-gated.
	if code := get(t, ts, "/v1/status", nil); code != http.StatusOK {
		t.Fatalf("GET /v1/status under pressure = %d, want 200", code)
	}
	// The reclaim paths stay open — they are how the tenant gets unstuck.
	if code := post(t, ts, "/v1/cycle/close", struct{}{}, nil); code != http.StatusOK {
		t.Fatalf("POST /v1/cycle/close under pressure = %d, want 200", code)
	}
	if code := post(t, ts, "/v1/admin/snapshot", struct{}{}, nil); code != http.StatusOK {
		t.Fatalf("POST /v1/admin/snapshot under pressure = %d, want 200", code)
	}

	// The scan published its verdict to the metrics registry.
	snap := reg.Snapshot()
	if p := snap.Gauges[retain.MetricPressure]; p <= 1 {
		t.Fatalf("%s = %g, want > 1 while overcommitted", retain.MetricPressure, p)
	}
	if b := snap.Gauges[retain.MetricBytes+`{tenant="default"}`]; b <= 0 {
		t.Fatalf("%s = %g, want > 0", retain.MetricBytes, b)
	}
}

// TestCompactionBoundsJournalBytes is the tentpole's steady-state guarantee:
// under sustained writes with a realistic (small) budget, compaction rounds
// keep the on-disk journal bounded — under twice the budget at every
// checkpoint — without ever shedding the writer.
func TestCompactionBoundsJournalBytes(t *testing.T) {
	dir := t.TempDir()
	reg := obs.NewRegistry()
	// Benign accesses journal ~7 bytes each and keep the tenant snapshot
	// small, so a 1 KiB budget forces several genuine compaction rounds over
	// 600 writes. (Alert-heavy traffic grows the snapshot with the cycle's
	// alert list, so its budget must be sized above one snapshot — the
	// README runbook covers that sizing.)
	const budget = 1 << 10
	srv, ts, _, _ := replicaFixture(t, dir, nil, func(cfg *Config) {
		cfg.Metrics = reg
		cfg.SegmentBytes = 512
		cfg.DiskBudgetBytes = budget
		cfg.CompactInterval = time.Hour
	})
	defer srv.Close()

	for i := 0; i < 600; i++ {
		code := post(t, ts, "/v1/access", AccessRequest{EmployeeID: 0, PatientID: 0}, nil)
		if code != http.StatusOK {
			t.Fatalf("access %d = %d: a reclaiming tenant must never be shed", i, code)
		}
		if i%10 == 9 {
			srv.retain.RunOnce()
			if got := dirBytes(t, dir); got > 2*budget {
				t.Fatalf("after %d writes journal holds %d bytes, budget %d: compaction not keeping up", i+1, got, budget)
			}
		}
	}
	pruned := reg.Snapshot().Counters[retain.MetricPrunedSegments+`{tenant="default"}`]
	if pruned < 3 {
		t.Fatalf("%s = %d, want >= 3 (sustained writes must force repeated compaction)", retain.MetricPrunedSegments, pruned)
	}
	if _, blocked := srv.retain.Blocked(DefaultTenantID); blocked {
		t.Fatal("reclaiming tenant ended up blocked")
	}
}
