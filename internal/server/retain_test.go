package server

import (
	"context"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/auditgames/sag/internal/admit"
	"github.com/auditgames/sag/internal/core"
	"github.com/auditgames/sag/internal/retain"
	"github.com/auditgames/sag/internal/shard"
	"github.com/auditgames/sag/internal/wal"
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
	cfg, _, _ := testConfig(t, func(cfg *Config) { cfg.DiskBudgetBytes = 1 << 20 })
	if _, err := New(cfg); err == nil || !strings.Contains(err.Error(), "data dir") {
		t.Fatalf("New with a disk budget and no data dir: err %v", err)
	}
}

// TestReadPathsDoNotCreateTenants is the create-on-read regression test: a
// GET against a tenant that does not exist must answer 404 and leave the
// tenant-creation counter untouched (reads used to be able to materialize a
// tenant, spending engine build work on a typo).
func TestReadPathsDoNotCreateTenants(t *testing.T) {
	srv, ts, _, _ := testServer(t)
	createdKey := shard.MetricTenantsCreatedTotal
	before := scrape(t, srv)[createdKey]
	if before == 0 {
		t.Fatal("fixture created no tenants; counter wiring broken")
	}

	for _, path := range []string{
		"/v1/status?tenant=ghost",
		"/v1/cycle/summary?tenant=ghost",
	} {
		if code, _, _ := do(t, ts.URL, "GET", path, "", nil); code != http.StatusNotFound {
			t.Fatalf("GET %s = %d, want 404 for an unknown tenant", path, code)
		}
	}
	// Header routing takes the same no-create path.
	if code, _, _ := do(t, ts.URL, "GET", "/v1/status", "ghost", nil); code != http.StatusNotFound {
		t.Fatalf("header-routed GET /v1/status = %d, want 404", code)
	}

	if after := scrape(t, srv)[createdKey]; after != before {
		t.Fatalf("read-only requests created tenants: %s %g -> %g", createdKey, before, after)
	}
	// Mutations still create: the counter moves when a write names a new
	// tenant.
	do(t, ts.URL, "POST", "/v1/access", "", AccessRequest{Tenant: "real", EmployeeID: 0, PatientID: 0})
	if after := scrape(t, srv)[createdKey]; after != before+1 {
		t.Fatalf("mutation did not create the tenant: %s %g -> %g", createdKey, before, after)
	}
}

// TestShedRetryAfterIsSpecValid drives the admission shedder into a 503 —
// the only slot held, no queue — and checks both retry headers on the way out.
func TestShedRetryAfterIsSpecValid(t *testing.T) {
	srv, ts, bgE, bgP := testServer(t, durableIn(t.TempDir()), func(cfg *Config) {
		cfg.Admission = admit.Config{MaxInflight: 1}
	})
	defer srv.Close()
	release, err := srv.admit.Admit(context.Background(), DefaultTenantID)
	if err != nil {
		t.Fatal(err)
	}
	defer release()

	code, _, hdr := do(t, ts.URL, "POST", "/v1/access", "", AccessRequest{EmployeeID: bgE, PatientID: bgP})
	if code != http.StatusServiceUnavailable {
		t.Fatalf("access with the only slot held answered %d, want 503", code)
	}
	checkRetryHeaders(t, hdr)
}

// TestDiskPressureAnswers507 pins the backpressure contract: with the box
// over its disk budget and the tenant holding nothing reclaimable, mutations
// answer 507 with both retry headers — but the paths that make bytes
// reclaimable (cycle close/new, snapshot) and all reads stay open.
func TestDiskPressureAnswers507(t *testing.T) {
	srv, ts, bgE, bgP := testServer(t, durableIn(t.TempDir()), func(cfg *Config) {
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

	code, _, hdr := do(t, ts.URL, "POST", "/v1/access", "", AccessRequest{EmployeeID: bgE, PatientID: bgP})
	if code != http.StatusInsufficientStorage {
		t.Fatalf("mutation under disk pressure = %d, want 507", code)
	}
	checkRetryHeaders(t, hdr)

	// Reads are never disk-gated.
	if code, _, _ := do(t, ts.URL, "GET", "/v1/status", "", nil); code != http.StatusOK {
		t.Fatalf("GET /v1/status under pressure = %d, want 200", code)
	}
	// The reclaim paths stay open — they are how the tenant gets unstuck.
	if code, _, _ := do(t, ts.URL, "POST", "/v1/cycle/close", "", struct{}{}); code != http.StatusOK {
		t.Fatalf("POST /v1/cycle/close under pressure = %d, want 200", code)
	}
	if code, _, _ := do(t, ts.URL, "POST", "/v1/admin/snapshot", "", struct{}{}); code != http.StatusOK {
		t.Fatalf("POST /v1/admin/snapshot under pressure = %d, want 200", code)
	}

	// The scan published its verdict to the metrics registry.
	m := scrape(t, srv)
	if p := m[retain.MetricPressure]; p <= 1 {
		t.Fatalf("%s = %g, want > 1 while overcommitted", retain.MetricPressure, p)
	}
	if b := m[retain.MetricBytes+dflt]; b <= 0 {
		t.Fatalf("%s = %g, want > 0", retain.MetricBytes, b)
	}
}

// TestCompactionBoundsJournalBytes is the tentpole's steady-state guarantee:
// under sustained writes with a realistic (small) budget, compaction rounds
// keep the on-disk journal bounded — under twice the budget at every
// checkpoint — without ever shedding the writer. Benign accesses journal ~7
// bytes each, so a 1 KiB budget forces several genuine compaction rounds over
// 600 writes.
func TestCompactionBoundsJournalBytes(t *testing.T) {
	testCompactionBoundsJournal(t, 1<<10, 0)
}

// TestCompactionBoundsAlertHeavyJournalBytes is its alert-heavy twin: every
// access is a gamed alert, so each journals a decision record and grows the
// cycle log every later snapshot carries, and the cycle rolls every 100
// alerts. The budget is one and a half times what one cycle's decision
// records take in a journal, framing included: a snapshot must cost about
// what its records cost for that to hold.
func TestCompactionBoundsAlertHeavyJournalBytes(t *testing.T) {
	const cycle = 100
	testCompactionBoundsJournal(t, cycle*journalBytesPerDecision(t, cycle)*3/2, cycle)
}

// testCompactionBoundsJournal drives 600 accesses under budget, running the
// retention scan every 10: benign ones when alertCycle is 0, otherwise alerts
// with a new cycle after every alertCycle of them.
func testCompactionBoundsJournal(t *testing.T, budget int64, alertCycle int) {
	dir := t.TempDir()
	srv, ts, bgE, bgP := testServer(t, durableIn(dir), func(cfg *Config) {
		cfg.SegmentBytes = compactionSegmentBytes
		cfg.DiskBudgetBytes = budget
		cfg.CompactInterval = time.Hour
	})
	defer srv.Close()
	alerts := alertCycle > 0
	req := AccessRequest{EmployeeID: 0, PatientID: 0}
	if alerts {
		req = AccessRequest{EmployeeID: bgE, PatientID: bgP}
	}

	for i := 0; i < 600; i++ {
		code, body, _ := do(t, ts.URL, "POST", "/v1/access", "", req)
		if code != http.StatusOK {
			t.Fatalf("access %d = %d: a reclaiming tenant must never be shed", i, code)
		}
		if resp := decode[AccessResponse](t, body); resp.Alert != alerts {
			t.Fatalf("access %d: alert %t, want %t", i, resp.Alert, alerts)
		}
		if alerts && i%alertCycle == alertCycle-1 {
			for _, path := range []string{"/v1/cycle/close", "/v1/cycle/new"} {
				if code, _, _ := do(t, ts.URL, "POST", path, "", NewCycleRequest{Budget: 50}); code != http.StatusOK {
					t.Fatalf("%s after access %d = %d", path, i, code)
				}
			}
		}
		if i%10 == 9 {
			srv.retain.RunOnce()
			if got := dirBytes(t, dir); got > 2*budget {
				t.Fatalf("after %d writes journal holds %d bytes, budget %d: compaction not keeping up", i+1, got, budget)
			}
		}
	}
	pruned := scrape(t, srv)[retain.MetricPrunedSegments+dflt]
	if pruned < 3 {
		t.Fatalf("%s = %g, want >= 3 (sustained writes must force repeated compaction)", retain.MetricPrunedSegments, pruned)
	}
	if _, blocked := srv.retain.Blocked(DefaultTenantID); blocked {
		t.Fatal("reclaiming tenant ended up blocked")
	}
}

// compactionSegmentBytes is the segment size of the compaction tests.
const compactionSegmentBytes = 512

// journalBytesPerDecision is what one decision record costs on disk, framing
// and segment headers included: n records as the alert-heavy test's tenant
// journals them, appended to a journal of the same segment size, over the
// bytes the journal leaves.
func journalBytesPerDecision(t *testing.T, n int) int64 {
	dir := t.TempDir()
	j, _, err := wal.Open(dir, wal.Options{Fsync: wal.FsyncNone, SegmentBytes: compactionSegmentBytes})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		// Only the uvarints vary in size: the fixture's alerts are type 1 at 9h.
		d := core.DecisionRecord{Seq: uint64(i), Type: 1, Time: 9 * time.Hour}
		if _, err := j.Append(wal.Record{Kind: wal.KindDecision, Decision: d}); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	return dirBytes(t, dir) / int64(n)
}

// TestDiskBudgetSeesTenantUntouchedSinceBoot: the disk budget accounts every
// journal under the data dir after a reboot, not only the tenants asked for
// since. Tenant A writes several segments and the box is killed; the rebooted
// box, under a budget A alone exceeds, is asked only for B, and one scan must
// still count A's bytes and compact them.
func TestDiskBudgetSeesTenantUntouchedSinceBoot(t *testing.T) {
	dir := t.TempDir()
	small := func(cfg *Config) {
		cfg.SegmentBytes = 512
		cfg.CompactInterval = time.Hour
	}
	_, ts, _, _ := testServer(t, durableIn(dir), small)
	for i := 0; i < 500; i++ {
		if code, _, _ := do(t, ts.URL, "POST", "/v1/access", "A", AccessRequest{}); code != http.StatusOK {
			t.Fatalf("access %d for A: status %d", i, code)
		}
	}
	// No Close (a kill -9 writes no shutdown snapshot): reboot on a copy.
	crashed := t.TempDir()
	copyTree(t, dir, crashed)
	before := dirBytes(t, crashed)
	srv2, ts2, _, _ := testServer(t, durableIn(crashed), func(cfg *Config) {
		small(cfg)
		cfg.DiskBudgetBytes = 1 << 10
	})
	defer srv2.Close()
	if code, _, _ := do(t, ts2.URL, "POST", "/v1/access", "B", AccessRequest{}); code != http.StatusOK {
		t.Fatalf("access for B: status %d", code)
	}
	srv2.retain.RunOnce()
	if b := scrape(t, srv2)[retain.MetricBytes+`{tenant="A"}`]; b <= 0 {
		t.Fatalf("%s{tenant=\"A\"} = %g: the scan did not see A's journal", retain.MetricBytes, b)
	}
	if after := dirBytes(t, crashed); after >= before {
		t.Fatalf("data dir %d bytes at the crash, %d after the scan: A was not compacted", before, after)
	}
}

// TestReleasedLeaseIsPrunedWithoutASnapshot: the segments a lease held
// through a snapshot are free bytes once it is released. Under a disk budget
// the box fits, the next scan deletes them through the tenant's Prune — it
// writes no snapshot — and counts them in sag_retain_pruned_segments_total.
func TestReleasedLeaseIsPrunedWithoutASnapshot(t *testing.T) {
	srv, ts, bgE, bgP := testServer(t, durableIn(t.TempDir()), func(cfg *Config) {
		cfg.SegmentBytes = compactionSegmentBytes
		cfg.DiskBudgetBytes = 1 << 30
		cfg.CompactInterval = time.Hour
	})
	defer srv.Close()
	j := resident(t, srv, DefaultTenantID).journal
	_, lease := j.Seed() // a reader from the oldest segment
	for i := 0; i < 40; i++ {
		if code, _, _ := do(t, ts.URL, "POST", "/v1/access", "", AccessRequest{EmployeeID: bgE, PatientID: bgP}); code != http.StatusOK {
			t.Fatalf("access %d: status %d", i, code)
		}
	}
	if code, _, _ := do(t, ts.URL, "POST", "/v1/admin/snapshot", "", nil); code != http.StatusOK {
		t.Fatalf("snapshot status %d", code)
	}
	held := j.RetainStats()
	if held.Segments < 3 || held.PrunableBytes != 0 {
		t.Fatalf("under the lease: %+v, want several segments and none prunable", held)
	}
	lease.Release()
	end, before := j.DurableCursor(), scrape(t, srv)[retain.MetricPrunedSegments+dflt]
	srv.retain.RunOnce()
	st := j.RetainStats()
	if st.Segments >= held.Segments || st.PrunableBytes != 0 {
		t.Fatalf("after the release and a scan: %+v, want the leased segments gone (held %+v)", st, held)
	}
	if j.DurableCursor() != end || st.SnapshotSeg != held.SnapshotSeg {
		t.Fatalf("the scan wrote to the journal (cursor %+v, was %+v): a prune needs no snapshot", j.DurableCursor(), end)
	}
	if pruned := scrape(t, srv)[retain.MetricPrunedSegments+dflt] - before; pruned != float64(held.Segments-st.Segments) {
		t.Fatalf("%s moved by %g, want the %d segments pruned", retain.MetricPrunedSegments, pruned, held.Segments-st.Segments)
	}
}
