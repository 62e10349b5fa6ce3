package server

import (
	"context"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/auditgames/sag/internal/replica"
	"github.com/auditgames/sag/internal/wal"
)

// startFollower builds a follower over dir replicating from primaryURL and
// starts its replication clients.
func startFollower(t *testing.T, dir, primaryURL string) (*Server, *httptest.Server) {
	t.Helper()
	srv, ts, _, _ := testServer(t, durableIn(dir), func(cfg *Config) {
		cfg.FollowPrimary = primaryURL
	})
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	if err := srv.StartFollowing(ctx); err != nil {
		t.Fatalf("StartFollowing: %v", err)
	}
	return srv, ts
}

type readyzBody struct {
	Status     string `json:"status"`
	LagRecords int64  `json:"lag_records"`
}

// waitFollowerReady polls the follower's /v1/readyz until it answers 200,
// asserting the body advertises the following state along the way.
func waitFollowerReady(t *testing.T, ts *httptest.Server) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	var lastCode int
	var lastBody string
	for time.Now().Before(deadline) {
		lastCode, lastBody, _ = do(t, ts.URL, "GET", "/v1/readyz", "", nil)
		body := decode[readyzBody](t, lastBody)
		if body.Status != "following" {
			t.Fatalf("readyz status %q, want \"following\": %s", body.Status, lastBody)
		}
		if lastCode == http.StatusOK {
			if body.LagRecords != 0 {
				t.Fatalf("ready follower reports lag %d: %s", body.LagRecords, lastBody)
			}
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("follower never became ready (last: %d %s)", lastCode, lastBody)
}

// tenantSegRange reads the min and max WAL segment numbers of the default
// tenant under a data dir.
func tenantSegRange(t *testing.T, dir string) (lo, hi int) {
	t.Helper()
	entries, err := os.ReadDir(filepath.Join(dir, "tenants", "t-"+DefaultTenantID))
	if err != nil {
		t.Fatalf("listing segments: %v", err)
	}
	lo = -1
	for _, e := range entries {
		name, ok := strings.CutPrefix(e.Name(), "wal-")
		if !ok {
			continue
		}
		name, ok = strings.CutSuffix(name, ".sagw")
		if !ok {
			continue
		}
		n, err := strconv.Atoi(name)
		if err != nil {
			continue
		}
		if lo == -1 || n < lo {
			lo = n
		}
		if n > hi {
			hi = n
		}
	}
	if lo == -1 {
		t.Fatalf("no segments under %s", dir)
	}
	return lo, hi
}

// sameSummary fails unless a promoted standby's cycle summary is
// byte-identical to the primary's.
func sameSummary(t *testing.T, prim, fol *httptest.Server) {
	t.Helper()
	code, want, _ := do(t, prim.URL, "GET", "/v1/cycle/summary", "", nil)
	if code != http.StatusOK {
		t.Fatalf("primary summary status %d", code)
	}
	code, got, _ := do(t, fol.URL, "GET", "/v1/cycle/summary", "", nil)
	if code != http.StatusOK {
		t.Fatalf("promoted summary status %d", code)
	}
	if got != want {
		t.Fatalf("promoted summary diverged:\nprimary:  %s\npromoted: %s", want, got)
	}
}

// TestFollowerCatchUpGateAndPromote is the in-process version of the failover
// drill's happy path: a follower discovers the primary's tenant, catches up
// to zero lag, rejects mutations with 503 + Retry-After while standing by,
// and after promotion serves mutations over state byte-identical to the
// primary's.
func TestFollowerCatchUpGateAndPromote(t *testing.T) {
	primDir, folDir := t.TempDir(), t.TempDir()
	_, prim, bgE, bgP := testServer(t, durableIn(primDir))
	for i := 0; i < 6; i++ {
		if code, _, _ := do(t, prim.URL, "POST", "/v1/access", "", AccessRequest{EmployeeID: bgE, PatientID: bgP}); code != http.StatusOK {
			t.Fatalf("primary access status %d", code)
		}
	}
	do(t, prim.URL, "POST", "/v1/access", "", AccessRequest{EmployeeID: 0, PatientID: 0})
	if code, _, _ := do(t, prim.URL, "POST", "/v1/quit", "", QuitRequest{EmployeeID: bgE + 1}); code != http.StatusOK {
		t.Fatalf("primary quit status %d", code)
	}

	folSrv, fol := startFollower(t, folDir, prim.URL)
	waitFollowerReady(t, fol)

	// Mutations are gated with 503 + Retry-After until promotion.
	for _, path := range []string{"/v1/access", "/v1/quit", "/v1/cycle/close", "/v1/cycle/new"} {
		code, body, hdr := do(t, fol.URL, "POST", path, "", AccessRequest{EmployeeID: bgE, PatientID: bgP})
		if code != http.StatusServiceUnavailable {
			t.Fatalf("%s on follower: status %d body %s, want 503", path, code, body)
		}
		if hdr.Get("Retry-After") == "" {
			t.Fatalf("%s on follower: 503 without Retry-After", path)
		}
		if !strings.Contains(body, "promote") {
			t.Fatalf("%s on follower: body %q does not point at promotion", path, body)
		}
	}
	// A follower cannot feed another follower.
	code, body, _ := do(t, fol.URL, "GET", "/v1/replicate?tenant="+DefaultTenantID, "", nil)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("replicate from follower: status %d body %s, want 503", code, body)
	}

	if code, body, _ := do(t, fol.URL, "POST", "/v1/admin/promote", "", struct{}{}); code != http.StatusOK || body != `{"promoted":1}`+"\n" {
		t.Fatalf("promote: %d %s, want 1 tenant promoted", code, body)
	}
	if code, _, _ := do(t, fol.URL, "POST", "/v1/admin/promote", "", struct{}{}); code != http.StatusConflict {
		t.Fatalf("second promote status %d, want 409", code)
	}
	sameSummary(t, prim, fol)

	// The promoted standby closes the cycle bit-identically to the primary —
	// same engine state, same deterministic signal draws.
	code, wantClose, _ := do(t, prim.URL, "POST", "/v1/cycle/close", "", struct{}{})
	if code != http.StatusOK {
		t.Fatalf("primary close status %d", code)
	}
	code, gotClose, _ := do(t, fol.URL, "POST", "/v1/cycle/close", "", struct{}{})
	if code != http.StatusOK {
		t.Fatalf("promoted close status %d", code)
	}
	if gotClose != wantClose {
		t.Fatalf("promoted cycle close diverged:\nprimary:  %s\npromoted: %s", wantClose, gotClose)
	}

	// Mutations land in the promoted standby's own journal.
	if code, _, _ := do(t, fol.URL, "POST", "/v1/cycle/new", "", struct{}{}); code != http.StatusOK {
		t.Fatalf("post-promotion cycle/new status %d", code)
	}
	if code, _, _ := do(t, fol.URL, "POST", "/v1/access", "", AccessRequest{EmployeeID: bgE, PatientID: bgP}); code != http.StatusOK {
		t.Fatalf("post-promotion access status %d", code)
	}
	if got := folSrv.Tenants(); len(got) != 1 {
		t.Fatalf("promoted server tenants %v", got)
	}
	if code, body, _ := do(t, fol.URL, "GET", "/v1/readyz", "", nil); code != http.StatusOK || decode[readyzBody](t, body).Status != "ready" {
		t.Fatalf("promoted readyz %d %s, want 200 ready", code, body)
	}
}

// TestFollowerOfUntouchedTenantBecomesReady: a resident tenant nobody has
// written to holds a journal that is one segment header, so the primary's
// durable cursor for it is {seg, header} — a position no frame ever carries
// the follower past. That bare header used to read as "behind by cursor",
// pinning lag at 1 and /v1/readyz at 503 until someone touched the tenant.
func TestFollowerOfUntouchedTenantBecomesReady(t *testing.T) {
	primDir, folDir := t.TempDir(), t.TempDir()
	_, prim, bgE, bgP := testServer(t, durableIn(primDir))
	// Traffic goes to another tenant only; "default" stays resident and empty.
	for i := 0; i < 3; i++ {
		if code, _, _ := do(t, prim.URL, "POST", "/v1/access", "ward-a", AccessRequest{EmployeeID: bgE, PatientID: bgP}); code != http.StatusOK {
			t.Fatalf("primary access status %d", code)
		}
	}
	folSrv, fol := startFollower(t, folDir, prim.URL)
	waitClients(t, folSrv, 2)
	waitFollowerReady(t, fol) // asserts {"status":"following","lag_records":0} + 200

	// The first write to the untouched tenant is still replicated.
	if code, _, _ := do(t, prim.URL, "POST", "/v1/access", "", AccessRequest{EmployeeID: bgE, PatientID: bgP}); code != http.StatusOK {
		t.Fatalf("primary access status %d", code)
	}
	cl := folSrv.follow.Load().snapshotClients()[DefaultTenantID]
	deadline := time.Now().Add(10 * time.Second)
	for cl.State().Records != 1 {
		if time.Now().After(deadline) {
			t.Fatalf("follower never mirrored the first write to the untouched tenant")
		}
		time.Sleep(5 * time.Millisecond)
	}
	waitFollowerReady(t, fol)
}

// TestFollowerReseedAfterGappedCursor deliberately invalidates a follower's
// resume cursor — the primary snapshots and prunes past it while the
// follower is offline — and requires the restarted follower to re-seed from
// the primary's snapshot rather than diverge or stall, and to promote over
// state byte-identical to the primary's.
func TestFollowerReseedAfterGappedCursor(t *testing.T) {
	primDir, folDir := t.TempDir(), t.TempDir()
	_, prim, bgE, bgP := testServer(t, durableIn(primDir), func(cfg *Config) {
		cfg.SegmentBytes = 256 // roll fast so snapshots prune quickly
	})
	for i := 0; i < 3; i++ {
		if code, _, _ := do(t, prim.URL, "POST", "/v1/access", "", AccessRequest{EmployeeID: bgE, PatientID: bgP}); code != http.StatusOK {
			t.Fatalf("primary access status %d", code)
		}
	}

	// First follower incarnation catches up, then goes offline (its
	// replication context is canceled, modelling a crash).
	folSrv1, folTS1, _, _ := testServer(t, durableIn(folDir), func(cfg *Config) {
		cfg.FollowPrimary = prim.URL
	})
	ctx1, cancel1 := context.WithCancel(context.Background())
	if err := folSrv1.StartFollowing(ctx1); err != nil {
		t.Fatalf("StartFollowing: %v", err)
	}
	waitFollowerReady(t, folTS1)
	cancel1()
	if fc := folSrv1.follow.Load(); fc != nil {
		fc.stop() // wait: a still-draining client must not mirror the pruning below
	}
	folTS1.Close()
	_, folMax := tenantSegRange(t, folDir)

	// While the follower is down, the primary advances past snapshot
	// pruning: every segment the follower mirrored disappears.
	for i := 0; i < 40; i++ {
		if code, _, _ := do(t, prim.URL, "POST", "/v1/admin/snapshot", "", struct{}{}); code != http.StatusOK {
			t.Fatalf("snapshot %d status %d", i, code)
		}
		if lo, _ := tenantSegRange(t, primDir); lo > folMax {
			break
		}
	}
	if lo, _ := tenantSegRange(t, primDir); lo <= folMax {
		t.Fatalf("primary min segment %d never pruned past follower max %d", lo, folMax)
	}
	if code, _, _ := do(t, prim.URL, "POST", "/v1/access", "", AccessRequest{EmployeeID: bgE, PatientID: bgP}); code != http.StatusOK {
		t.Fatal("post-prune access failed")
	}

	// Second incarnation over the same dir: its recovered cursor is gapped,
	// the primary demands a re-seed, and catch-up completes anyway.
	folSrv2, fol2 := startFollower(t, folDir, prim.URL)
	waitFollowerReady(t, fol2)
	if n := folSrv2.Metrics().Snapshot().Counters[replica.MetricReseeds+`{tenant="default"}`]; n < 1 {
		t.Fatalf("follower caught up without a re-seed (%s = %d)", replica.MetricReseeds, n)
	}
	if lo, _ := tenantSegRange(t, folDir); lo <= folMax {
		t.Fatalf("re-seeded follower min segment %d did not advance past stale max %d", lo, folMax)
	}
	if n, err := folSrv2.Promote(); err != nil || n != 1 {
		t.Fatalf("Promote = %d, %v, want 1 tenant", n, err)
	}
	sameSummary(t, prim, fol2)
}

// TestFollowerRequiresDataDir pins the config contract: following without
// durability is a construction-time error, not a silent no-op.
func TestFollowerRequiresDataDir(t *testing.T) {
	cfg, _, _ := testConfig(t, func(cfg *Config) { cfg.FollowPrimary = "http://127.0.0.1:1" })
	if _, err := New(cfg); err == nil || !strings.Contains(err.Error(), "data dir") {
		t.Fatalf("New without DataDir but with FollowPrimary: err %v", err)
	}
}

// TestPromoteWhileCompactorScans: a standby started with both a primary to
// follow and a disk budget promotes while its retention compactor is
// scanning. A tenant's journal is set before the router publishes the tenant,
// so the compactor reads it bare; the race detector is the assertion.
func TestPromoteWhileCompactorScans(t *testing.T) {
	primDir, folDir := t.TempDir(), t.TempDir()
	_, prim, bgE, bgP := testServer(t, durableIn(primDir))
	for i := 0; i < 6; i++ {
		if code, _, _ := do(t, prim.URL, "POST", "/v1/access", "", AccessRequest{EmployeeID: bgE, PatientID: bgP}); code != http.StatusOK {
			t.Fatalf("primary access status %d", code)
		}
	}
	folSrv, fol, _, _ := testServer(t, durableIn(folDir), func(cfg *Config) {
		cfg.FollowPrimary = prim.URL
		cfg.DiskBudgetBytes = 1 << 20
		cfg.CompactInterval = time.Millisecond
	})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := folSrv.StartFollowing(ctx); err != nil {
		t.Fatalf("StartFollowing: %v", err)
	}
	waitFollowerReady(t, fol)
	if n, err := folSrv.Promote(); err != nil || n != 1 {
		t.Fatalf("Promote = %d, %v, want 1 tenant", n, err)
	}
	// Let a few scans see the opened journal before sealing it.
	time.Sleep(10 * time.Millisecond)
	if err := folSrv.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

// TestConcurrentPromoteOpensEachJournalOnce: an orchestrator that retries
// POST /v1/admin/promote must not promote twice. Promote used to check the
// standby flag at its top and clear it at its end, so concurrent calls all
// passed, each reopened the tenant's journal, and the one that lost the race
// for the new segment file ran the error path and unloaded the tenant the
// winner had just promoted. Exactly one call promotes; the rest answer 409.
func TestConcurrentPromoteOpensEachJournalOnce(t *testing.T) {
	primDir, folDir := t.TempDir(), t.TempDir()
	_, prim, bgE, bgP := testServer(t, durableIn(primDir))
	for i := 0; i < 4; i++ {
		if code, _, _ := do(t, prim.URL, "POST", "/v1/access", "", AccessRequest{EmployeeID: bgE, PatientID: bgP}); code != http.StatusOK {
			t.Fatalf("primary access status %d", code)
		}
	}
	folSrv, fol := startFollower(t, folDir, prim.URL)
	waitFollowerReady(t, fol)
	segments := func() int {
		names, err := filepath.Glob(filepath.Join(folDir, "tenants", "t-"+DefaultTenantID, "wal-*.sagw"))
		if err != nil {
			t.Fatal(err)
		}
		return len(names)
	}
	before := segments()

	const callers = 8
	codes := make([]int, callers)
	bodies := make([]string, callers)
	var wg sync.WaitGroup
	for i := range codes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			codes[i], bodies[i], _ = do(t, fol.URL, "POST", "/v1/admin/promote", "", struct{}{})
		}()
	}
	wg.Wait()
	ok := 0
	for i, code := range codes {
		switch code {
		case http.StatusOK:
			ok++
			if bodies[i] != `{"promoted":1}`+"\n" {
				t.Errorf("caller %d answered %s, want 1 tenant promoted", i, bodies[i])
			}
		case http.StatusConflict:
		default:
			t.Errorf("caller %d: status %d, want 200 or 409", i, code)
		}
	}
	if ok != 1 {
		t.Fatalf("%d of %d concurrent promotes succeeded (statuses %v), want exactly 1", ok, callers, codes)
	}
	if after := segments(); after != before+1 {
		t.Fatalf("promotion left %d segments on disk, want %d (one new active segment)", after, before+1)
	}
	if got := folSrv.Tenants(); len(got) != 1 {
		t.Fatalf("promoted server tenants %v, want the one resident tenant", got)
	}
	if code, _, _ := do(t, fol.URL, "POST", "/v1/access", "", AccessRequest{EmployeeID: bgE, PatientID: bgP}); code != http.StatusOK {
		t.Fatalf("post-promotion access status %d", code)
	}
}

// TestCloseDuringPromote: SIGTERM can land while a promotion is opening the
// tenants' journals (a promote request outliving the shutdown grace). A
// journal opened just after Close looked would never be sealed. Whichever
// call wins, no journal may be left open.
func TestCloseDuringPromote(t *testing.T) {
	primDir, folDir := t.TempDir(), t.TempDir()
	_, prim, bgE, bgP := testServer(t, durableIn(primDir))
	const tenants = 6
	for i := 0; i < tenants; i++ {
		req := AccessRequest{Tenant: "t" + strconv.Itoa(i), EmployeeID: bgE, PatientID: bgP}
		if code, _, _ := do(t, prim.URL, "POST", "/v1/access", "", req); code != http.StatusOK {
			t.Fatalf("primary access status %d", code)
		}
	}
	folSrv, fol := startFollower(t, folDir, prim.URL)
	waitClients(t, folSrv, tenants+1) // the six and the default tenant
	waitFollowerReady(t, fol)

	var wg sync.WaitGroup
	var promoted int
	var promoteErr, closeErr error
	wg.Add(2)
	go func() { defer wg.Done(); promoted, promoteErr = folSrv.Promote() }()
	go func() { defer wg.Done(); closeErr = folSrv.Close() }()
	wg.Wait()
	if closeErr != nil {
		t.Fatalf("Close: %v", closeErr)
	}
	if promoteErr == nil && promoted != tenants+1 {
		t.Fatalf("Promote opened %d journals, want %d", promoted, tenants+1)
	}
	// If Close won, the promotion was refused and no tenant is resident.
	for _, id := range folSrv.Tenants() {
		if _, err := resident(t, folSrv, id).journal.Append(wal.Record{Kind: wal.KindQuit}); err != wal.ErrClosed {
			t.Errorf("tenant %s: journal left open after Close (append: %v)", id, err)
		}
	}
}

// waitClients waits until a standby's follow controller runs n replication
// clients.
func waitClients(t *testing.T, srv *Server, n int) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for len(srv.follow.Load().snapshotClients()) < n {
		if time.Now().After(deadline) {
			t.Fatalf("follower runs %d replication clients, want %d", len(srv.follow.Load().snapshotClients()), n)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestStandbyServesNoTenant: a caught-up standby holds no tenant and builds
// none. Its mirror is its only state, so every tenant-addressed route —
// reads included — answers 503 with Retry-After and the promote hint, and no
// engine series is exported until promotion.
func TestStandbyServesNoTenant(t *testing.T) {
	primDir, folDir := t.TempDir(), t.TempDir()
	_, prim, bgE, bgP := testServer(t, durableIn(primDir))
	for _, id := range []string{DefaultTenantID, "ward-a"} {
		if code, _, _ := do(t, prim.URL, "POST", "/v1/access", id, AccessRequest{EmployeeID: bgE, PatientID: bgP}); code != http.StatusOK {
			t.Fatalf("primary access status %d", code)
		}
	}
	folSrv, fol := startFollower(t, folDir, prim.URL)
	waitClients(t, folSrv, 2)
	waitFollowerReady(t, fol)
	if got := folSrv.Tenants(); len(got) != 0 {
		t.Fatalf("standby holds tenants %v, want none", got)
	}
	check := func(what string, code int, body string, hdr http.Header) {
		t.Helper()
		if code != http.StatusServiceUnavailable || hdr.Get("Retry-After") == "" || !strings.Contains(body, "promote") {
			t.Fatalf("%s on a standby: %d %s (Retry-After %q), want 503 with Retry-After and the promote hint",
				what, code, body, hdr.Get("Retry-After"))
		}
	}
	for _, path := range []string{"/v1/status", "/v1/status?tenant=ward-a", "/v1/cycle/summary", "/v1/cycle/summary?tenant=ward-a"} {
		code, raw, hdr := do(t, fol.URL, "GET", path, "", nil)
		check("GET "+path, code, raw, hdr)
	}
	for _, body := range []any{struct{}{}, SnapshotRequest{Tenant: "ward-a"}} {
		code, raw, hdr := do(t, fol.URL, "POST", "/v1/admin/snapshot", "", body)
		check("POST /v1/admin/snapshot", code, raw, hdr)
	}
	if got := folSrv.Tenants(); len(got) != 0 {
		t.Fatalf("a standby read built tenants %v", got)
	}
	for name := range folSrv.Metrics().Snapshot().Gauges {
		if strings.HasPrefix(name, "sag_engine_") {
			t.Fatalf("standby exports engine series %s before promotion", name)
		}
	}
}

// TestReadsDuringPromote: readers hammer /v1/status for every tenant while
// Promote builds them. A read before the standby gate lifts answers 503;
// afterwards every tenant is resident with an open journal and accepts an
// access. Run it under -race.
func TestReadsDuringPromote(t *testing.T) {
	primDir, folDir := t.TempDir(), t.TempDir()
	_, prim, bgE, bgP := testServer(t, durableIn(primDir))
	ids := []string{DefaultTenantID, "t0", "t1", "t2", "t3"}
	for _, id := range ids {
		if code, _, _ := do(t, prim.URL, "POST", "/v1/access", id, AccessRequest{EmployeeID: bgE, PatientID: bgP}); code != http.StatusOK {
			t.Fatalf("primary access status %d", code)
		}
	}
	folSrv, fol := startFollower(t, folDir, prim.URL)
	waitClients(t, folSrv, len(ids))
	waitFollowerReady(t, fol)

	stop := make(chan struct{})
	var reads atomic.Int64
	var wg sync.WaitGroup
	for _, id := range ids {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				code, _, _ := do(t, fol.URL, "GET", "/v1/status?tenant="+id, "", nil)
				if code != http.StatusOK && code != http.StatusServiceUnavailable {
					t.Errorf("status for %s during promote: %d", id, code)
					return
				}
				reads.Add(1)
			}
		}()
	}
	// Promote with reads in flight, and keep reading the rebuilt tenants.
	waitReads := func(n int64) {
		for reads.Load() < n && !t.Failed() {
			time.Sleep(time.Millisecond)
		}
	}
	waitReads(int64(2 * len(ids)))
	n, err := folSrv.Promote()
	waitReads(reads.Load() + int64(2*len(ids)))
	close(stop)
	wg.Wait()
	if err != nil || n != len(ids) {
		t.Fatalf("Promote = %d, %v, want %d tenants", n, err, len(ids))
	}
	if got := folSrv.Tenants(); !slices.Equal(got, ids) {
		t.Fatalf("promoted server tenants %v, want %v", got, ids)
	}
	for _, id := range ids {
		if resident(t, folSrv, id).journal == nil {
			t.Errorf("tenant %s promoted without a journal", id)
		}
		if code, _, _ := do(t, fol.URL, "POST", "/v1/access", id, AccessRequest{EmployeeID: bgE, PatientID: bgP}); code != http.StatusOK {
			t.Errorf("post-promotion access for %s: status %d", id, code)
		}
	}
}
