package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"log"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime/pprof"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/auditgames/sag/internal/core"
	"github.com/auditgames/sag/internal/history"
	"github.com/auditgames/sag/internal/shard"
	"github.com/auditgames/sag/internal/wal"
)

// logBuf is the text the captured slog records were written as, one record a
// line (background goroutines may log concurrently with the test goroutine).
type logBuf struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (l *logBuf) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.buf.Write(p)
}

// records returns the captured lines whose attributes after the time begin
// with prefix, such as `level=WARN msg="truncated corrupt journal tail"`.
func (l *logBuf) records(prefix string) []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []string
	for _, ln := range strings.Split(l.buf.String(), "\n") {
		if _, rest, ok := strings.Cut(ln, " "); ok && (rest == prefix || strings.HasPrefix(rest, prefix+" ")) {
			out = append(out, ln)
		}
	}
	return out
}

func (l *logBuf) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.buf.String()
}

// captureLog sends slog's default logger to a text handler over a logBuf for
// the rest of the test. No test in this module calls t.Parallel, so swapping
// the process-wide default is safe.
func captureLog(t *testing.T) *logBuf {
	logs := &logBuf{}
	prev, out, flags := slog.Default(), log.Writer(), log.Flags()
	slog.SetDefault(slog.New(slog.NewTextHandler(logs, nil)))
	t.Cleanup(func() {
		slog.SetDefault(prev)
		// SetDefault with a non-default handler redirected package log too.
		log.SetOutput(out)
		log.SetFlags(flags)
	})
	return logs
}

// TestDurableCleanRestartRestoresState drives traffic through the whole API
// surface, shuts the server down cleanly, boots a second server over the
// same data dir, and requires the recovered /v1/status and /v1/cycle/summary
// to match the pre-shutdown ones byte for byte.
func TestDurableCleanRestartRestoresState(t *testing.T) {
	dir := t.TempDir()
	srv, ts, bgE, bgP := testServer(t, durableIn(dir))
	for i := 0; i < 15; i++ {
		if code, _, _ := do(t, ts.URL, "POST", "/v1/access", "", AccessRequest{EmployeeID: bgE, PatientID: bgP}); code != http.StatusOK {
			t.Fatalf("access status %d", code)
		}
	}
	do(t, ts.URL, "POST", "/v1/access", "", AccessRequest{EmployeeID: 0, PatientID: 0}) // benign
	if code, _, _ := do(t, ts.URL, "POST", "/v1/quit", "", QuitRequest{EmployeeID: bgE + 1}); code != http.StatusOK {
		t.Fatalf("quit status %d", code)
	}
	_, wantStatus, _ := do(t, ts.URL, "GET", "/v1/status", "", nil)
	_, wantSummary, _ := do(t, ts.URL, "GET", "/v1/cycle/summary", "", nil)
	if err := srv.Close(); err != nil {
		t.Fatalf("clean shutdown: %v", err)
	}

	logs := captureLog(t)
	_, ts2, _, _ := testServer(t, durableIn(dir))
	if code, got, _ := do(t, ts2.URL, "GET", "/v1/status", "", nil); code != http.StatusOK || got != wantStatus {
		t.Fatalf("recovered status diverged:\n got %s\nwant %s", got, wantStatus)
	}
	if _, got, _ := do(t, ts2.URL, "GET", "/v1/cycle/summary", "", nil); got != wantSummary {
		t.Fatalf("recovered summary diverged:\n got %s\nwant %s", got, wantSummary)
	}
	banner := logs.records(`level=INFO msg="recovered tenant" tenant=default`)
	if len(banner) != 1 || !strings.Contains(banner[0], " snapshot_bytes=") || !strings.Contains(banner[0], " replayed_records=0 ") {
		t.Fatalf("want one recovery banner for the default tenant with its snapshot size and 0 replayed records; logged:\n%s", logs)
	}
	// The recovered tenant keeps serving: budget keeps descending from the
	// recovered point, and the flag set survived.
	_, body, _ := do(t, ts2.URL, "GET", "/v1/status", "", nil)
	before := decode[Status](t, body)
	if before.FlaggedUsers != 1 || before.Quits != 1 {
		t.Fatalf("flag set lost in recovery: %+v", before)
	}
	for i := 0; i < 5; i++ {
		do(t, ts2.URL, "POST", "/v1/access", "", AccessRequest{EmployeeID: bgE, PatientID: bgP})
	}
	_, body, _ = do(t, ts2.URL, "GET", "/v1/status", "", nil)
	if after := decode[Status](t, body); after.Accesses != before.Accesses+5 || after.RemainingBudget > before.RemainingBudget {
		t.Fatalf("recovered tenant not live: before %+v after %+v", before, after)
	}
}

// TestRestartCountsNothingAndKeepsTheFlaggedGauge: the service counters
// count what this process served, so a restart moves none of them, while the
// flagged gauge follows the recovered flagged set. A crash image recovers
// through Replay, a clean shutdown's through the snapshot's RestoreState; both
// answer /v1/status as the live server did.
func TestRestartCountsNothingAndKeepsTheFlaggedGauge(t *testing.T) {
	dir := t.TempDir()
	srv, ts, bgE, bgP := testServer(t, durableIn(dir))
	for i := 0; i < 6; i++ {
		do(t, ts.URL, "POST", "/v1/access", "", AccessRequest{EmployeeID: bgE, PatientID: bgP})
	}
	do(t, ts.URL, "POST", "/v1/access", "", AccessRequest{EmployeeID: 0, PatientID: 0}) // benign
	for _, emp := range []int{bgE, bgE + 1} {
		if code, _, _ := do(t, ts.URL, "POST", "/v1/quit", "", QuitRequest{EmployeeID: emp}); code != http.StatusOK {
			t.Fatalf("quit status %d", code)
		}
	}
	_, live, _ := do(t, ts.URL, "GET", "/v1/status", "", nil)
	if m := scrape(t, srv, "sag_server_"); m[core.MetricAccessesTotal+dflt] != 7 || m[core.MetricAlertsTotal+dflt] != 6 || m[core.MetricQuitsTotal+dflt] != 2 || m[core.MetricFlaggedUsers+dflt] != 2 {
		t.Fatalf("live: %v, want 7 accesses, 6 alerts, 2 quits and 2 flagged", m)
	}
	crash := t.TempDir()
	copyTree(t, dir, crash)
	if err := srv.Close(); err != nil {
		t.Fatalf("clean shutdown: %v", err)
	}
	for _, boot := range []struct{ name, dir string }{{"crash", crash}, {"clean", dir}} {
		srv2, ts2, _, _ := testServer(t, durableIn(boot.dir))
		if code, got, _ := do(t, ts2.URL, "GET", "/v1/status", "", nil); code != http.StatusOK || got != live {
			t.Fatalf("%s restart: status diverges:\nlive:      %s\nrecovered: %d %s", boot.name, live, code, got)
		}
		if m := scrape(t, srv2, "sag_server_"); m[core.MetricFlaggedUsers+dflt] != 2 ||
			m[core.MetricAccessesTotal+dflt]+m[core.MetricAlertsTotal+dflt]+m[core.MetricWarnedTotal+dflt]+m[core.MetricQuitsTotal+dflt] != 0 {
			t.Fatalf("%s restart: %v, want the four counters at 0 and 2 flagged", boot.name, m)
		}
		if err := srv2.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestDurableCrashRestartReplaysJournal models kill -9: the first server is
// abandoned without Close (no shutdown snapshot), so the second boot must
// rebuild the tenant purely by replaying decision records — and end up in
// the identical state.
func TestDurableCrashRestartReplaysJournal(t *testing.T) {
	dir := t.TempDir()
	_, ts, bgE, bgP := testServer(t, durableIn(dir))
	for i := 0; i < 12; i++ {
		do(t, ts.URL, "POST", "/v1/access", "", AccessRequest{EmployeeID: bgE, PatientID: bgP})
	}
	do(t, ts.URL, "POST", "/v1/quit", "", QuitRequest{EmployeeID: bgE})
	_, wantStatus, _ := do(t, ts.URL, "GET", "/v1/status", "", nil)
	_, wantSummary, _ := do(t, ts.URL, "GET", "/v1/cycle/summary", "", nil)
	// No Close: every acknowledged request was fsynced (FsyncAlways), and
	// nothing else is durable.

	_, ts2, _, _ := testServer(t, durableIn(dir))
	if _, got, _ := do(t, ts2.URL, "GET", "/v1/status", "", nil); got != wantStatus {
		t.Fatalf("replayed status diverged:\n got %s\nwant %s", got, wantStatus)
	}
	if _, got, _ := do(t, ts2.URL, "GET", "/v1/cycle/summary", "", nil); got != wantSummary {
		t.Fatalf("replayed summary diverged:\n got %s\nwant %s", got, wantSummary)
	}
	// A flagged employee keeps being flagged on the recovered server.
	_, body, _ := do(t, ts2.URL, "POST", "/v1/access", "", AccessRequest{EmployeeID: bgE, PatientID: bgP})
	if resp := decode[AccessResponse](t, body); !resp.Flagged || !resp.Warn {
		t.Fatalf("flag lost across crash: %+v", resp)
	}
}

// TestDurableCycleLifecycleSurvivesCrash closes a cycle, opens a new one,
// adds traffic, crashes, and checks the recovered tenant is mid-way through
// the NEW cycle — not the old one.
func TestDurableCycleLifecycleSurvivesCrash(t *testing.T) {
	dir := t.TempDir()
	_, ts, bgE, bgP := testServer(t, durableIn(dir))
	for i := 0; i < 8; i++ {
		do(t, ts.URL, "POST", "/v1/access", "", AccessRequest{EmployeeID: bgE, PatientID: bgP})
	}
	if code, _, _ := do(t, ts.URL, "POST", "/v1/cycle/close", "", struct{}{}); code != http.StatusOK {
		t.Fatalf("close status %d", code)
	}
	if code, _, _ := do(t, ts.URL, "POST", "/v1/cycle/new", "", NewCycleRequest{Budget: 30}); code != http.StatusOK {
		t.Fatalf("new cycle status %d", code)
	}
	for i := 0; i < 3; i++ {
		do(t, ts.URL, "POST", "/v1/access", "", AccessRequest{EmployeeID: bgE, PatientID: bgP})
	}
	_, wantStatus, _ := do(t, ts.URL, "GET", "/v1/status", "", nil)

	_, ts2, _, _ := testServer(t, durableIn(dir))
	_, got, _ := do(t, ts2.URL, "GET", "/v1/status", "", nil)
	if got != wantStatus {
		t.Fatalf("recovered status diverged:\n got %s\nwant %s", got, wantStatus)
	}
	if st := decode[Status](t, got); st.Budget != 30 || st.Accesses != 3 {
		t.Fatalf("recovered into the wrong cycle: %+v", st)
	}
	// The closed-cycle marker must not have leaked into the new cycle: the
	// recovered server accepts a close of the new cycle.
	code, body, _ := do(t, ts2.URL, "POST", "/v1/cycle/close", "", struct{}{})
	if code != http.StatusOK {
		t.Fatalf("close after recovery status %d", code)
	}
	if closed := decode[CloseResponse](t, body); len(closed.Audits) != 3 {
		t.Fatalf("close after recovery covers %d alerts, want 3", len(closed.Audits))
	}
}

// TestDurableTornTailBootsWithTruncation cuts bytes off the journal tail
// (the torn final write of a crash) and requires the next boot to truncate,
// log the offset, and serve the surviving prefix.
func TestDurableTornTailBootsWithTruncation(t *testing.T) {
	dir := t.TempDir()
	srv, ts, bgE, bgP := testServer(t, durableIn(dir))
	for i := 0; i < 6; i++ {
		do(t, ts.URL, "POST", "/v1/access", "", AccessRequest{EmployeeID: bgE, PatientID: bgP})
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	// Tear the shutdown snapshot record off the sealed segment: recovery
	// must fall back to replaying the six decision records before it.
	tdir := filepath.Join(dir, "tenants", "t-"+DefaultTenantID)
	segs, err := filepath.Glob(filepath.Join(tdir, "wal-*.sagw"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segments in %s: %v", tdir, err)
	}
	last := segs[len(segs)-1]
	info, err := os.Stat(last)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(last, info.Size()-3); err != nil {
		t.Fatal(err)
	}

	logs := captureLog(t)
	_, ts2, _, _ := testServer(t, durableIn(dir))
	cut := logs.records(`level=WARN msg="truncated corrupt journal tail" tenant=default segment=` + last)
	if len(cut) != 1 {
		t.Fatalf("want one WARN record naming the tenant and the torn segment; logged:\n%s", logs)
	}
	_, tail, _ := strings.Cut(cut[0], " offset=")
	if off, err := strconv.ParseInt(tail, 10, 64); err != nil || off <= 0 || off >= info.Size()-3 {
		t.Fatalf("the WARN record's offset is not inside the torn segment: %q", cut[0])
	}
	code, body, _ := do(t, ts2.URL, "GET", "/v1/status", "", nil)
	if code != http.StatusOK {
		t.Fatalf("status after torn-tail boot: %d", code)
	}
	if st := decode[Status](t, body); st.Accesses != 6 || st.Alerts != 6 {
		t.Fatalf("torn-tail boot lost acknowledged records: %+v", st)
	}
}

// TestDurableSnapshotEndpoint covers /v1/admin/snapshot: all tenants, one
// tenant by header, unknown tenant, and the 400 when durability is off.
func TestDurableSnapshotEndpoint(t *testing.T) {
	dir := t.TempDir()
	_, ts, bgE, bgP := testServer(t, durableIn(dir))
	do(t, ts.URL, "POST", "/v1/access", "", AccessRequest{EmployeeID: bgE, PatientID: bgP})
	do(t, ts.URL, "POST", "/v1/access", "acme", AccessRequest{EmployeeID: bgE, PatientID: bgP})

	if code, body, _ := do(t, ts.URL, "POST", "/v1/admin/snapshot", "", SnapshotRequest{}); code != http.StatusOK || body != `{"tenants":2}`+"\n" {
		t.Fatalf("snapshot-all: %d %s, want 2 tenants", code, body)
	}
	if code, body, _ := do(t, ts.URL, "POST", "/v1/admin/snapshot", "acme", SnapshotRequest{}); code != http.StatusOK || body != `{"tenants":1}`+"\n" {
		t.Fatalf("single-tenant snapshot: %d %s", code, body)
	}
	if code, _, _ := do(t, ts.URL, "POST", "/v1/admin/snapshot", "ghost", SnapshotRequest{}); code != http.StatusNotFound {
		t.Fatalf("unknown tenant snapshot status %d", code)
	}

	// A forced snapshot bounds replay: a crash right after it recovers from
	// the snapshot alone (zero replayed records).
	_, ts2, _, _ := testServer(t, durableIn(dir))
	if _, body, _ := do(t, ts2.URL, "GET", "/v1/status", "", nil); decode[Status](t, body).Accesses != 1 {
		t.Fatalf("snapshot-recovered status %s", body)
	}
	if _, metrics, _ := do(t, ts2.URL, "GET", "/v1/metrics", "", nil); !strings.Contains(metrics, MetricRecoveryReplayed+`{tenant="default"} 0`+"\n") {
		t.Fatalf("expected snapshot-only recovery (0 replayed records):\n%s", metrics)
	}

	// Durability off: the endpoint must refuse rather than pretend.
	_, plain, _, _ := testServer(t)
	code, body, _ := do(t, plain.URL, "POST", "/v1/admin/snapshot", "", SnapshotRequest{})
	if code != http.StatusBadRequest {
		t.Fatalf("snapshot without data dir status %d", code)
	}
	if apiErr := decode[apiError](t, body); !strings.Contains(apiErr.Error, "durability is disabled") {
		t.Fatalf("unhelpful error: %+v", apiErr)
	}
}

// TestSnapshotAllOutlivesAFailedJournal: POST /v1/admin/snapshot naming no
// tenant snapshots every resident tenant it can and answers 500 when one
// tenant's journal has failed (here: it is closed). The router hands the
// tenants out in map order, in which the failed one sometimes comes last, so
// the snapshot is taken in twenty rounds: one that stops at its first error
// leaves some healthy tenant unsnapshotted in nearly all of them.
func TestSnapshotAllOutlivesAFailedJournal(t *testing.T) {
	srv, ts, bgE, bgP := testServer(t, durableIn(t.TempDir()), func(cfg *Config) { cfg.Fsync = wal.FsyncNone })
	// The default tenant, resident since boot, is the failed one; the first
	// round's accesses create the healthy ones.
	healthy := []string{"a", "b", "c", "d"}
	if err := resident(t, srv, DefaultTenantID).journal.Close(); err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 20; round++ {
		for _, id := range healthy {
			if code, _, _ := do(t, ts.URL, "POST", "/v1/access", id, AccessRequest{EmployeeID: bgE, PatientID: bgP}); code != http.StatusOK {
				t.Fatalf("round %d: access for %s: status %d", round, id, code)
			}
		}
		if code, body, _ := do(t, ts.URL, "POST", "/v1/admin/snapshot", "", nil); code != http.StatusInternalServerError || !strings.Contains(body, wal.ErrClosed.Error()) {
			t.Fatalf("round %d: snapshot of every tenant with one journal closed: %d %s, want 500 naming it", round, code, body)
		}
		for _, id := range healthy {
			if n := resident(t, srv, id).journal.RetainStats().TailRecords; n != 0 {
				t.Fatalf("round %d: tenant %s holds %d records after its newest snapshot: the snapshot stopped at the failed tenant", round, id, n)
			}
		}
	}
}

// TestDurablePerTenantIsolation checks that two tenants journal and recover
// independently — tenant A's records never leak into tenant B.
func TestDurablePerTenantIsolation(t *testing.T) {
	dir := t.TempDir()
	_, ts, bgE, bgP := testServer(t, durableIn(dir))
	for i := 0; i < 4; i++ {
		do(t, ts.URL, "POST", "/v1/access", "alpha", AccessRequest{EmployeeID: bgE, PatientID: bgP})
	}
	for i := 0; i < 7; i++ {
		do(t, ts.URL, "POST", "/v1/access", "beta", AccessRequest{EmployeeID: bgE, PatientID: bgP})
	}
	_, wantAlpha, _ := do(t, ts.URL, "GET", "/v1/status?tenant=alpha", "", nil)
	_, wantBeta, _ := do(t, ts.URL, "GET", "/v1/status?tenant=beta", "", nil)

	_, ts2, _, _ := testServer(t, durableIn(dir))
	if _, got, _ := do(t, ts2.URL, "GET", "/v1/status?tenant=alpha", "", nil); got != wantAlpha {
		t.Fatalf("alpha diverged:\n got %s\nwant %s", got, wantAlpha)
	}
	if _, got, _ := do(t, ts2.URL, "GET", "/v1/status?tenant=beta", "", nil); got != wantBeta {
		t.Fatalf("beta diverged:\n got %s\nwant %s", got, wantBeta)
	}
}

// TestCycleSummaryEndpoint pins the read-only summary route used by the
// crash drill: wrong method, unknown tenant, and a live summary.
func TestCycleSummaryEndpoint(t *testing.T) {
	_, ts, bgE, bgP := testServer(t)
	do(t, ts.URL, "POST", "/v1/access", "", AccessRequest{EmployeeID: bgE, PatientID: bgP})
	code, body, _ := do(t, ts.URL, "GET", "/v1/cycle/summary", "", nil)
	if code != http.StatusOK {
		t.Fatalf("summary status %d", code)
	}
	if sum := decode[core.CycleSummary](t, body); sum.Alerts != 1 {
		t.Fatalf("summary %+v", sum)
	}
	if code, _, _ := do(t, ts.URL, "GET", "/v1/cycle/summary?tenant=ghost", "", nil); code != http.StatusNotFound {
		t.Fatalf("unknown tenant summary status %d", code)
	}
	if code, _, _ := do(t, ts.URL, "POST", "/v1/cycle/summary", "", "{}"); code != http.StatusMethodNotAllowed {
		t.Fatalf("POST on summary status %d", code)
	}
}

// TestDurableAutoSnapshotCadence sets a tiny SnapshotEvery and checks the
// background snapshot fires (journal position counter resets and the next
// boot recovers from a snapshot, not a cold replay of everything).
func TestDurableAutoSnapshotCadence(t *testing.T) {
	dir := t.TempDir()
	srv, ts, bgE, bgP := testServer(t, durableIn(dir), func(cfg *Config) { cfg.SnapshotEvery = 5 })
	for i := 0; i < 20; i++ {
		do(t, ts.URL, "POST", "/v1/access", "", AccessRequest{EmployeeID: bgE, PatientID: bgP})
	}
	// Background snapshots are asynchronous; wait until the scan has nothing
	// left to snapshot. Ask the journal, not the directory: Recover on a live
	// journal trims its preallocated tail and can cut a frame mid-write.
	j := resident(t, srv, DefaultTenantID).journal
	deadline := time.Now().Add(5 * time.Second)
	for st := j.RetainStats(); st.SnapshotSeg < 0 || st.TailRecords >= 5; st = j.RetainStats() {
		if time.Now().After(deadline) {
			t.Fatal("no automatic snapshot within 5s despite SnapshotEvery=5")
		}
		time.Sleep(20 * time.Millisecond)
	}
	_, wantStatus, _ := do(t, ts.URL, "GET", "/v1/status", "", nil)
	_, ts2, _, _ := testServer(t, durableIn(dir))
	if _, got, _ := do(t, ts2.URL, "GET", "/v1/status", "", nil); got != wantStatus {
		t.Fatalf("auto-snapshot recovery diverged:\n got %s\nwant %s", got, wantStatus)
	}
}

// TestBootKeepsTheRecoveredTailTowardTheCadence: the snapshot cadence counts
// the tail a boot replayed. A box killed 4 records into a cadence of 5 must
// snapshot after one more record; a count that restarts at 0 on every boot
// never snapshots a box that restarts more often than the cadence.
func TestBootKeepsTheRecoveredTailTowardTheCadence(t *testing.T) {
	cadence := func(cfg *Config) {
		cfg.SnapshotEvery = 5
		cfg.CompactInterval = 20 * time.Millisecond
	}
	dir := t.TempDir()
	_, ts, bgE, bgP := testServer(t, durableIn(dir), cadence)
	for i := 0; i < 4; i++ {
		do(t, ts.URL, "POST", "/v1/access", "", AccessRequest{EmployeeID: bgE, PatientID: bgP})
	}
	// No Close (a kill -9 writes no shutdown snapshot): reboot on a copy.
	crashed := t.TempDir()
	copyTree(t, dir, crashed)
	srv2, ts2, _, _ := testServer(t, durableIn(crashed), cadence)
	defer srv2.Close()
	do(t, ts2.URL, "POST", "/v1/access", "", AccessRequest{EmployeeID: bgE, PatientID: bgP})
	j := resident(t, srv2, DefaultTenantID).journal
	for deadline := time.Now().Add(5 * time.Second); j.RetainStats().SnapshotSeg < 0; time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("no snapshot with a tail of %d records against a cadence of 5", j.RetainStats().TailRecords)
		}
	}
}

// TestRollbackSurvivesSnapshotAndCrash: no snapshot holds the kept estimate
// or equilibrium; recovery rebuilds them from the last solved record. A day
// whose estimate freezes after the 14:20 query is snapshotted past the
// freeze, served on, killed and rebooted: the next decisions, /v1/status and
// /v1/cycle/summary equal an uninterrupted server's. They do again when the
// snapshot is the JSON older builds wrote, with the estimator blob, kept
// rates and last-good equilibrium they put in it. A snapshot in a format this
// build does not know refuses the boot and leaves the journal untouched.
func TestRollbackSurvivesSnapshotAndCrash(t *testing.T) {
	// Sixty alerts on one historical day, one every 5 minutes from 10:00:
	// after 14:40 fewer than DefaultRollbackThreshold remain.
	var recs []history.Record
	for i := 0; i < 60; i++ {
		recs = append(recs, history.Record{Type: i % 7, Time: 10*time.Hour + time.Duration(i)*5*time.Minute})
	}
	curves, err := history.NewCurves(recs, 7, 1)
	if err != nil {
		t.Fatal(err)
	}
	const lastHealthy = 14*time.Hour + 20*time.Minute
	rollback, err := history.NewRollback(curves, history.DefaultRollbackThreshold)
	if err != nil {
		t.Fatal(err)
	}
	var clock atomic.Int64
	boot := func(dir string) (*httptest.Server, int, int) {
		_, ts, bgE, bgP := testServer(t, durableIn(dir), func(cfg *Config) {
			cfg.Budget = 6 // short of the day's volume, so θ follows the rates
			cfg.Estimator = rollback
			cfg.Clock = func() time.Duration { return time.Duration(clock.Load()) }
		})
		return ts, bgE, bgP
	}
	// Each access comes 20 minutes after the one before.
	access := func(ts *httptest.Server, bgE, bgP int) string {
		clock.Add(int64(20 * time.Minute))
		code, body, _ := do(t, ts.URL, "POST", "/v1/access", "", AccessRequest{EmployeeID: bgE, PatientID: bgP})
		if code != http.StatusOK {
			t.Fatalf("access at %v: status %d: %s", time.Duration(clock.Load()), code, body)
		}
		return body
	}
	// serve runs the day up to the crash: 09:00–15:00, a snapshot, 15:20–16:00.
	serve := func(dir string) (*httptest.Server, int, int) {
		clock.Store(int64(8*time.Hour + 40*time.Minute))
		ts, bgE, bgP := boot(dir)
		for i := 0; i < 19; i++ {
			access(ts, bgE, bgP)
		}
		if code, _, _ := do(t, ts.URL, "POST", "/v1/admin/snapshot", "", SnapshotRequest{}); code != http.StatusOK {
			t.Fatalf("snapshot status %d", code)
		}
		for i := 0; i < 3; i++ {
			access(ts, bgE, bgP)
		}
		return ts, bgE, bgP
	}
	// rest serves 16:20–17:20 and returns the answers, status and summary.
	rest := func(ts *httptest.Server, bgE, bgP int) []string {
		var out []string
		for i := 0; i < 4; i++ {
			out = append(out, access(ts, bgE, bgP))
		}
		for _, path := range []string{"/v1/status", "/v1/cycle/summary"} {
			_, body, _ := do(t, ts.URL, "GET", path, "", nil)
			out = append(out, body)
		}
		return out
	}
	want := rest(serve(t.TempDir()))

	dir := t.TempDir()
	serve(dir)
	// No Close (a kill -9 writes no shutdown snapshot): reboot on copies.
	crashed, probe, legacy := t.TempDir(), t.TempDir(), t.TempDir()
	copyTree(t, dir, crashed)
	copyTree(t, dir, probe)
	j, rec, err := wal.Open(filepath.Join(probe, "tenants", "t-"+DefaultTenantID), wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	snap, err := wal.DecodeSnapshot(rec.Snapshot)
	if err != nil || len(rec.Tail) != 3 {
		t.Fatalf("want a snapshot this build decodes, then 3 records; got %d records after a snapshot that decodes with %v", len(rec.Tail), err)
	}
	// The legacy dir holds the same state as older builds wrote it — JSON,
	// with the rollback memory and the kept rates at the freeze, and an
	// equilibrium the rebuild must not read — and the same tail. Every key
	// is spelled as those builds spelled it.
	decisions := make([]map[string]any, len(snap.Decisions))
	for i, d := range snap.Decisions {
		decisions[i] = map[string]any{
			"Seq": d.Seq, "Type": d.Type, "Time": d.Time, "Warned": d.Warned,
			"Vacuous": d.Vacuous, "AppliedSAG": d.AppliedSAG, "Fallback": d.Fallback,
			"Theta": d.Theta, "AuditCharge": d.AuditCharge, "BudgetBefore": d.BudgetBefore,
			"BudgetAfter": d.BudgetAfter, "SSEUtility": d.SSEUtility, "OSSPUtility": d.OSSPUtility,
		}
	}
	frozen, _ := curves.FutureRates(lastHealthy)
	blob, err := json.Marshal(map[string]any{
		"engine": map[string]any{
			"budget": snap.Budget, "initial": snap.Initial,
			"rng_draws": snap.RNGDraws, "decisions": decisions,
			"last_rates": frozen,
			"last_sse":   map[string]any{"coverage": make([]float64, 7), "best_type": 6},
		},
		"estimator": json.RawMessage(fmt.Appendf(nil, `{"last_good":%d,"seen_good":true}`, lastHealthy)),
		"accesses":  snap.Accesses, "alerts": snap.Alerts, "warned": snap.Warned, "quits": snap.Quits,
		"closed": snap.Closed,
	})
	if err != nil {
		t.Fatal(err)
	}
	// A snapshot in a format this build does not know, before the same tail.
	unknown := t.TempDir()
	for _, d := range []struct {
		dir  string
		blob []byte
	}{{legacy, blob}, {unknown, append([]byte{0x7f}, rec.Snapshot[1:]...)}} {
		lj, _, err := wal.Open(filepath.Join(d.dir, "tenants", "t-"+DefaultTenantID), wal.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if err := lj.Snapshot(d.blob); err != nil {
			t.Fatal(err)
		}
		for _, r := range rec.Tail {
			wait, err := lj.Append(r)
			if err == nil {
				err = wait()
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		if err := lj.Close(); err != nil {
			t.Fatal(err)
		}
	}
	// It is refused, naming the tenant, and the journal is left as it was:
	// nothing is truncated for a blob that is intact but unreadable here
	// (TestRefusedBootWritesNothing).
	unknownTenant := filepath.Join(unknown, "tenants", "t-"+DefaultTenantID)
	refuseBoot(t, unknown)
	if kept, err := wal.Recover(unknownTenant); err != nil || kept.Truncated || len(kept.Tail) != len(rec.Tail) || !bytes.HasPrefix(kept.Snapshot, []byte{0x7f}) {
		t.Fatalf("after the refused boot the journal recovers %+v, %v; want the unknown snapshot and its %d-record tail", kept, err, len(rec.Tail))
	}

	for _, d := range []struct{ name, dir string }{{"crashed", crashed}, {"legacy", legacy}} {
		clock.Store(int64(16 * time.Hour))
		ts, bgE, bgP := boot(d.dir)
		got := rest(ts, bgE, bgP)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: answer %d after the reboot differs from the uninterrupted server's:\n got %s\nwant %s", d.name, i, got[i], want[i])
			}
		}
	}
}

// treeBytes maps each file under root, by its path relative to root, to its
// contents.
func treeBytes(t *testing.T, root string) map[string]string {
	t.Helper()
	files := make(map[string]string)
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		raw, err := os.ReadFile(p)
		rel, _ := filepath.Rel(root, p)
		files[rel] = string(raw)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// refuseBoot requires a boot over dir to refuse the default tenant, naming
// it, and to leave every file under dir as it was, adding none.
func refuseBoot(t *testing.T, dir string) {
	t.Helper()
	before := treeBytes(t, dir)
	cfg, _, _ := testConfig(t, durableIn(dir))
	if _, err := New(cfg); err == nil || !strings.Contains(err.Error(), `tenant "default"`) {
		t.Fatalf("boot: err %v, want a refusal naming the tenant", err)
	}
	after := treeBytes(t, dir)
	for name, raw := range after {
		if was, ok := before[name]; !ok {
			t.Errorf("the refused boot added %s (%d bytes)", name, len(raw))
		} else if was != raw {
			t.Errorf("the refused boot changed %s (%d bytes, now %d)", name, len(was), len(raw))
		}
	}
	for name := range before {
		if _, ok := after[name]; !ok {
			t.Errorf("the refused boot removed %s", name)
		}
	}
}

// TestRefusedBootWritesNothing: a boot that refuses a tenant at replay leaves
// its dir exactly as it was — no fresh segment, no byte changed, no tail cut
// — for each refusal replay can make: a snapshot in an unknown format, a
// snapshot RestoreState refuses and a tail decision out of sequence. Each
// refusal is booted over a cleanly closed dir and over two crashed ones: one
// abandoned without Close, its active segment ending in preallocated zeros,
// and one whose last frame is torn. The journal is cut and opened for
// writing only once the tenant restored.
func TestRefusedBootWritesNothing(t *testing.T) {
	src := t.TempDir()
	srv, ts, bgE, bgP := testServer(t, durableIn(src))
	for i := 0; i < 3; i++ {
		if code, _, _ := do(t, ts.URL, "POST", "/v1/access", "", AccessRequest{EmployeeID: bgE, PatientID: bgP}); code != http.StatusOK {
			t.Fatalf("access status %d", code)
		}
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	rec, err := wal.Recover(srv.tenantWALDir(DefaultTenantID))
	if err != nil || rec.Snapshot == nil {
		t.Fatalf("the shutdown snapshot: %v", err)
	}
	st, err := wal.DecodeSnapshot(rec.Snapshot)
	if err != nil {
		t.Fatal(err)
	}
	st.Budget = -1
	badBudget, err := wal.EncodeSnapshot(st)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name     string
		snapshot []byte
		tail     []wal.Record
	}{
		{"unknown snapshot format", append([]byte{0x7f}, rec.Snapshot[1:]...), nil},
		{"snapshot RestoreState refuses", badBudget, nil},
		{"tail decision out of sequence", rec.Snapshot, []wal.Record{{Kind: wal.KindDecision, Decision: core.DecisionRecord{Seq: 99}}}},
	} {
		t.Run(c.name, func(t *testing.T) {
			dir, zeroTail, torn := t.TempDir(), t.TempDir(), t.TempDir()
			tenant := filepath.Join("tenants", "t-"+DefaultTenantID)
			j, _, err := wal.Open(filepath.Join(dir, tenant), wal.Options{Fsync: wal.FsyncAlways})
			if err != nil {
				t.Fatal(err)
			}
			if err := j.Snapshot(c.snapshot); err != nil {
				t.Fatal(err)
			}
			// A record behind the refused ones, for the torn copy to tear.
			for _, r := range append(c.tail, wal.Record{Kind: wal.KindQuit, Employee: 1}) {
				wait, err := j.Append(r)
				if err == nil {
					err = wait()
				}
				if err != nil {
					t.Fatal(err)
				}
			}
			end := j.DurableCursor()
			copyTree(t, dir, zeroTail)
			copyTree(t, dir, torn)
			if err := j.Close(); err != nil {
				t.Fatal(err)
			}
			active := filepath.Join(tenant, fmt.Sprintf("wal-%06d.sagw", end.Seg))
			if size := len(treeBytes(t, zeroTail)[active]); int64(size) <= end.Off {
				t.Fatalf("the abandoned segment holds %d bytes, its last frame ends at %d: no zero tail", size, end.Off)
			}
			if err := os.Truncate(filepath.Join(torn, active), end.Off-2); err != nil {
				t.Fatal(err)
			}
			for _, d := range []string{dir, zeroTail, torn} {
				refuseBoot(t, d)
			}
		})
	}
}

// TestBootRefusesMoreTenantsThanTheCap: a data dir holding more tenants than
// MaxTenants does not boot with an arbitrary subset of them, and the journals
// the failed boot opened are sealed again; under a cap that fits, every
// tenant is resident and answers as before the restart.
func TestBootRefusesMoreTenantsThanTheCap(t *testing.T) {
	dir := t.TempDir()
	srv, ts, bgE, bgP := testServer(t, durableIn(dir))
	ids := []string{"a", "b", DefaultTenantID}
	want := make(map[string]string)
	for _, id := range ids {
		if code, _, _ := do(t, ts.URL, "POST", "/v1/access", id, AccessRequest{EmployeeID: bgE, PatientID: bgP}); code != http.StatusOK {
			t.Fatalf("access for %s: status %d", id, code)
		}
	}
	for _, id := range ids {
		_, want[id], _ = do(t, ts.URL, "GET", "/v1/status?tenant="+id, "", nil)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}

	// Under FsyncInterval every open journal runs a ticker goroutine.
	tickers := func() int {
		var stacks strings.Builder
		_ = pprof.Lookup("goroutine").WriteTo(&stacks, 2)
		return strings.Count(stacks.String(), "wal.(*Journal).ticker(")
	}
	before := tickers()
	cfg, _, _ := testConfig(t, durableIn(dir), func(cfg *Config) {
		cfg.MaxTenants = 2
		cfg.Fsync = wal.FsyncInterval
	})
	if _, err := New(cfg); !errors.Is(err, shard.ErrTenantLimit) {
		t.Fatalf("New over 3 tenants with MaxTenants 2: err %v, want %v", err, shard.ErrTenantLimit)
	}
	if got := tickers(); got != before {
		t.Fatalf("the refused boot left %d journal tickers running", got-before)
	}

	srv2, ts2, _, _ := testServer(t, durableIn(dir), func(cfg *Config) { cfg.MaxTenants = 3 })
	defer srv2.Close()
	if got := srv2.Tenants(); !slices.Equal(got, ids) {
		t.Fatalf("resident after boot: %v", got)
	}
	for _, id := range ids {
		if _, got, _ := do(t, ts2.URL, "GET", "/v1/status?tenant="+id, "", nil); got != want[id] {
			t.Fatalf("%s diverged:\n got %s\nwant %s", id, got, want[id])
		}
	}
}

// BenchmarkSnapshotColdPath times the two places a snapshot's codec sits on a
// tenant's critical path, for one tenant whose cycle holds 4096 decisions:
//   - restore: decoding the snapshot of a killed box (4096 decisions and a
//     short tail in its journal) onto a pristine tenant, core.RestoreState
//     included — what a boot spends on the tenant before it serves;
//   - snapshot/hold: the part of one snapshot every request to the tenant
//     waits out;
//   - snapshot/total: one whole snapshotTenant, fsync and prune included.
//
// restore and snapshot/total report the snapshot's size as
// snapshot_B/decision.
func BenchmarkSnapshotColdPath(b *testing.B) {
	const decisions, tail = 4096, 8
	cfg, bgE, bgP := testConfig(b, durableIn(b.TempDir()), func(cfg *Config) {
		cfg.Budget = 1e4 // enough that no decision in the cycle runs dry
		cfg.Fsync = wal.FsyncNone
		cfg.CompactInterval = time.Hour
		cfg.SnapshotEvery = 1 << 30
	})
	srv, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	h := srv.Handler()
	alert := fmt.Sprintf(`{"employee_id":%d,"patient_id":%d}`, bgE, bgP)
	access := func() {
		if code, body, _ := do(b, h, "POST", "/v1/access", "", alert); code != http.StatusOK {
			b.Fatalf("access: status %d: %s", code, body)
		}
	}
	for i := 0; i < decisions; i++ {
		access()
	}
	if err := srv.snapshotTenant(resident(b, srv, DefaultTenantID)); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < tail; i++ {
		access()
	}
	_, want, _ := do(b, h, "GET", "/v1/status", "", nil)
	// No Close first (a kill -9 writes no shutdown snapshot); the tail is
	// flushed, as a box under -fsync always would have it.
	if err := resident(b, srv, DefaultTenantID).journal.Sync(); err != nil {
		b.Fatal(err)
	}
	crashed := b.TempDir()
	copyTree(b, cfg.DataDir, crashed)
	if err := srv.Close(); err != nil {
		b.Fatal(err)
	}
	cfg.DataDir = crashed
	booted, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	defer booted.Close()
	if code, got, _ := do(b, booted.Handler(), "GET", "/v1/status", "", nil); code != http.StatusOK || got != want {
		b.Fatalf("the killed box booted to a different status:\n got %d %s\nwant %s", code, got, want)
	}
	rec, err := wal.Recover(booted.tenantWALDir(DefaultTenantID))
	if err != nil {
		b.Fatal(err)
	}
	if rec.Snapshot == nil || len(rec.Tail) != tail {
		b.Fatalf("journal holds snapshot %t and %d tail records, want a snapshot and %d", rec.Snapshot != nil, len(rec.Tail), tail)
	}
	perDecision := float64(len(rec.Snapshot)) / decisions

	b.Run("restore", func(b *testing.B) {
		// Pristine tenants come from a twin without a data dir: same
		// instance, estimator and seed, no journal to recover.
		memCfg := cfg
		memCfg.DataDir = ""
		mem, err := New(memCfg)
		if err != nil {
			b.Fatal(err)
		}
		var t *tenantState
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			_, data, err := mem.buildTenant(DefaultTenantID)
			if err != nil {
				b.Fatal(err)
			}
			t = data.(*tenantState)
			b.StartTimer()
			st, err := wal.DecodeSnapshot(rec.Snapshot)
			if err == nil {
				err = t.engine.RestoreState(st)
			}
			if err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		if got := t.engine.Summary().Alerts; got != decisions {
			b.Fatalf("restored %d decisions, want %d", got, decisions)
		}
		b.ReportMetric(perDecision, "snapshot_B/decision")
	})
	// hold is the span in which the tenant's requests are blocked: the
	// engine's export, encode and enqueue, timed up to the journal's wait,
	// which runs untimed. total is the whole snapshot, fsync and prune
	// included.
	b.Run("snapshot", func(b *testing.B) {
		t := resident(b, booted, DefaultTenantID)
		b.Run("hold", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				wait, err := booted.enqueueSnapshot(t)
				b.StopTimer()
				if err == nil {
					err = wait()
				}
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
			}
		})
		b.Run("total", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := booted.snapshotTenant(t); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(perDecision, "snapshot_B/decision")
		})
	})
}

// BenchmarkBootWithTenants times New over a data dir holding N tenants besides
// the default one, killed with a few decisions in each journal's tail, so
// every boot opens and replays N+1 journals. Every box it opens is checked:
// all N+1 tenants are resident, and one answers as before the kill.
func BenchmarkBootWithTenants(b *testing.B) {
	for _, n := range []int{32, 256} {
		b.Run(strconv.Itoa(n), func(b *testing.B) {
			cfg, bgE, bgP := testConfig(b, durableIn(b.TempDir()), func(cfg *Config) { cfg.MaxTenants = n + 1 })
			srv, err := New(cfg)
			if err != nil {
				b.Fatal(err)
			}
			h := srv.Handler()
			for i := 0; i < n; i++ {
				body := fmt.Sprintf(`{"employee_id":%d,"patient_id":%d,"tenant":"t%03d"}`, bgE, bgP, i)
				for k := 0; k < 3; k++ {
					if code, out, _ := do(b, h, "POST", "/v1/access", "", body); code != http.StatusOK {
						b.Fatalf("access for t%03d: status %d: %s", i, code, out)
					}
				}
			}
			_, want, _ := do(b, h, "GET", "/v1/status?tenant=t000", "", nil)
			// No Close first (a kill -9 writes no shutdown snapshot): each
			// boot replays the tails, over a fresh copy of the crashed dir.
			crashed, work := b.TempDir(), filepath.Join(b.TempDir(), "work")
			copyTree(b, cfg.DataDir, crashed)
			if err := srv.Close(); err != nil {
				b.Fatal(err)
			}
			cfg.DataDir = work
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				if err := os.RemoveAll(work); err != nil {
					b.Fatal(err)
				}
				copyTree(b, crashed, work)
				b.StartTimer()
				srv, err := New(cfg)
				b.StopTimer()
				if err != nil {
					b.Fatal(err)
				}
				if got := len(srv.Tenants()); got != n+1 {
					b.Fatalf("%d tenants resident after boot, want %d", got, n+1)
				}
				if code, got, _ := do(b, srv.Handler(), "GET", "/v1/status?tenant=t000", "", nil); code != http.StatusOK || got != want {
					b.Fatalf("t000 diverged:\n got %d %s\nwant %s", code, got, want)
				}
				if err := srv.Close(); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
			}
		})
	}
}
