package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
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

	"github.com/auditgames/sag/internal/alerts"
	"github.com/auditgames/sag/internal/core"
	"github.com/auditgames/sag/internal/emr"
	"github.com/auditgames/sag/internal/history"
	"github.com/auditgames/sag/internal/shard"
	"github.com/auditgames/sag/internal/sim"
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

// durableFixture is fixture with durability on: same world, same seeds, but
// every tenant journals to dir. Building a second fixture over the same dir
// models a process restart.
func durableFixture(t *testing.T, dir string) (*Server, *httptest.Server, int, int) {
	t.Helper()
	return replicaFixture(t, dir, nil)
}

// getRaw fetches a path and returns the raw body for byte-level comparison.
func getRaw(t *testing.T, ts *httptest.Server, path string) (int, string) {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(raw)
}

// TestDurableCleanRestartRestoresState drives traffic through the whole API
// surface, shuts the server down cleanly, boots a second server over the
// same data dir, and requires the recovered /v1/status and /v1/cycle/summary
// to match the pre-shutdown ones byte for byte.
func TestDurableCleanRestartRestoresState(t *testing.T) {
	dir := t.TempDir()
	srv, ts, bgE, bgP := durableFixture(t, dir)
	for i := 0; i < 15; i++ {
		if code := post(t, ts, "/v1/access", AccessRequest{EmployeeID: bgE, PatientID: bgP}, nil); code != http.StatusOK {
			t.Fatalf("access status %d", code)
		}
	}
	post(t, ts, "/v1/access", AccessRequest{EmployeeID: 0, PatientID: 0}, nil) // benign
	if code := post(t, ts, "/v1/quit", QuitRequest{EmployeeID: bgE + 1}, nil); code != http.StatusOK {
		t.Fatalf("quit status %d", code)
	}
	_, wantStatus := getRaw(t, ts, "/v1/status")
	_, wantSummary := getRaw(t, ts, "/v1/cycle/summary")
	if err := srv.Close(); err != nil {
		t.Fatalf("clean shutdown: %v", err)
	}

	logs := captureLog(t)
	_, ts2, _, _ := durableFixture(t, dir)
	if code, got := getRaw(t, ts2, "/v1/status"); code != http.StatusOK || got != wantStatus {
		t.Fatalf("recovered status diverged:\n got %s\nwant %s", got, wantStatus)
	}
	if _, got := getRaw(t, ts2, "/v1/cycle/summary"); got != wantSummary {
		t.Fatalf("recovered summary diverged:\n got %s\nwant %s", got, wantSummary)
	}
	banner := logs.records(`level=INFO msg="recovered tenant" tenant=default`)
	if len(banner) != 1 || !strings.Contains(banner[0], " snapshot_bytes=") || !strings.Contains(banner[0], " replayed_records=0 ") {
		t.Fatalf("want one recovery banner for the default tenant with its snapshot size and 0 replayed records; logged:\n%s", logs)
	}
	// The recovered tenant keeps serving: budget keeps descending from the
	// recovered point, and the flag set survived.
	var before, after Status
	get(t, ts2, "/v1/status", &before)
	if before.FlaggedUsers != 1 || before.Quits != 1 {
		t.Fatalf("flag set lost in recovery: %+v", before)
	}
	for i := 0; i < 5; i++ {
		post(t, ts2, "/v1/access", AccessRequest{EmployeeID: bgE, PatientID: bgP}, nil)
	}
	get(t, ts2, "/v1/status", &after)
	if after.Accesses != before.Accesses+5 || after.RemainingBudget > before.RemainingBudget {
		t.Fatalf("recovered tenant not live: before %+v after %+v", before, after)
	}
}

// TestDurableCrashRestartReplaysJournal models kill -9: the first server is
// abandoned without Close (no shutdown snapshot), so the second boot must
// rebuild the tenant purely by replaying decision records — and end up in
// the identical state.
func TestDurableCrashRestartReplaysJournal(t *testing.T) {
	dir := t.TempDir()
	_, ts, bgE, bgP := durableFixture(t, dir)
	var last AccessResponse
	for i := 0; i < 12; i++ {
		post(t, ts, "/v1/access", AccessRequest{EmployeeID: bgE, PatientID: bgP}, &last)
	}
	post(t, ts, "/v1/quit", QuitRequest{EmployeeID: bgE}, nil)
	_, wantStatus := getRaw(t, ts, "/v1/status")
	_, wantSummary := getRaw(t, ts, "/v1/cycle/summary")
	// No Close: every acknowledged request was fsynced (FsyncAlways), and
	// nothing else is durable.

	_, ts2, _, _ := durableFixture(t, dir)
	if _, got := getRaw(t, ts2, "/v1/status"); got != wantStatus {
		t.Fatalf("replayed status diverged:\n got %s\nwant %s", got, wantStatus)
	}
	if _, got := getRaw(t, ts2, "/v1/cycle/summary"); got != wantSummary {
		t.Fatalf("replayed summary diverged:\n got %s\nwant %s", got, wantSummary)
	}
	// A flagged employee keeps being flagged on the recovered server.
	var resp AccessResponse
	post(t, ts2, "/v1/access", AccessRequest{EmployeeID: bgE, PatientID: bgP}, &resp)
	if !resp.Flagged || !resp.Warn {
		t.Fatalf("flag lost across crash: %+v", resp)
	}
}

// TestDurableCycleLifecycleSurvivesCrash closes a cycle, opens a new one,
// adds traffic, crashes, and checks the recovered tenant is mid-way through
// the NEW cycle — not the old one.
func TestDurableCycleLifecycleSurvivesCrash(t *testing.T) {
	dir := t.TempDir()
	_, ts, bgE, bgP := durableFixture(t, dir)
	for i := 0; i < 8; i++ {
		post(t, ts, "/v1/access", AccessRequest{EmployeeID: bgE, PatientID: bgP}, nil)
	}
	if code := post(t, ts, "/v1/cycle/close", struct{}{}, nil); code != http.StatusOK {
		t.Fatalf("close status %d", code)
	}
	if code := post(t, ts, "/v1/cycle/new", NewCycleRequest{Budget: 30}, nil); code != http.StatusOK {
		t.Fatalf("new cycle status %d", code)
	}
	for i := 0; i < 3; i++ {
		post(t, ts, "/v1/access", AccessRequest{EmployeeID: bgE, PatientID: bgP}, nil)
	}
	_, wantStatus := getRaw(t, ts, "/v1/status")

	_, ts2, _, _ := durableFixture(t, dir)
	var st Status
	if _, got := getRaw(t, ts2, "/v1/status"); got != wantStatus {
		t.Fatalf("recovered status diverged:\n got %s\nwant %s", got, wantStatus)
	}
	get(t, ts2, "/v1/status", &st)
	if st.Budget != 30 || st.Accesses != 3 {
		t.Fatalf("recovered into the wrong cycle: %+v", st)
	}
	// The closed-cycle marker must not have leaked into the new cycle: the
	// recovered server accepts a close of the new cycle.
	var closed CloseResponse
	if code := post(t, ts2, "/v1/cycle/close", struct{}{}, &closed); code != http.StatusOK {
		t.Fatalf("close after recovery status %d", code)
	}
	if len(closed.Audits) != 3 {
		t.Fatalf("close after recovery covers %d alerts, want 3", len(closed.Audits))
	}
}

// TestDurableTornTailBootsWithTruncation cuts bytes off the journal tail
// (the torn final write of a crash) and requires the next boot to truncate,
// log the offset, and serve the surviving prefix.
func TestDurableTornTailBootsWithTruncation(t *testing.T) {
	dir := t.TempDir()
	srv, ts, bgE, bgP := durableFixture(t, dir)
	for i := 0; i < 6; i++ {
		post(t, ts, "/v1/access", AccessRequest{EmployeeID: bgE, PatientID: bgP}, nil)
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
	_, ts2, _, _ := durableFixture(t, dir)
	cut := logs.records(`level=WARN msg="truncated corrupt journal tail" tenant=default segment=` + last)
	if len(cut) != 1 {
		t.Fatalf("want one WARN record naming the tenant and the torn segment; logged:\n%s", logs)
	}
	_, tail, _ := strings.Cut(cut[0], " offset=")
	if off, err := strconv.ParseInt(tail, 10, 64); err != nil || off <= 0 || off >= info.Size()-3 {
		t.Fatalf("the WARN record's offset is not inside the torn segment: %q", cut[0])
	}
	var st Status
	if code := get(t, ts2, "/v1/status", &st); code != http.StatusOK {
		t.Fatalf("status after torn-tail boot: %d", code)
	}
	if st.Accesses != 6 || st.Alerts != 6 {
		t.Fatalf("torn-tail boot lost acknowledged records: %+v", st)
	}
}

// TestDurableSnapshotEndpoint covers /v1/admin/snapshot: all tenants, one
// tenant by header, unknown tenant, and the 400 when durability is off.
func TestDurableSnapshotEndpoint(t *testing.T) {
	dir := t.TempDir()
	_, ts, bgE, bgP := durableFixture(t, dir)
	post(t, ts, "/v1/access", AccessRequest{EmployeeID: bgE, PatientID: bgP}, nil)
	postTenant(t, ts, "acme", "/v1/access", AccessRequest{EmployeeID: bgE, PatientID: bgP}, nil)

	var snap SnapshotResponse
	if code := post(t, ts, "/v1/admin/snapshot", SnapshotRequest{}, &snap); code != http.StatusOK {
		t.Fatalf("snapshot-all status %d", code)
	}
	if snap.Tenants != 2 {
		t.Fatalf("snapshotted %d tenants, want 2", snap.Tenants)
	}
	if code := postTenant(t, ts, "acme", "/v1/admin/snapshot", SnapshotRequest{}, &snap); code != http.StatusOK || snap.Tenants != 1 {
		t.Fatalf("single-tenant snapshot: code %d, %+v", code, snap)
	}
	var apiErr apiError
	if code := postTenant(t, ts, "ghost", "/v1/admin/snapshot", SnapshotRequest{}, &apiErr); code != http.StatusNotFound {
		t.Fatalf("unknown tenant snapshot status %d", code)
	}

	// A forced snapshot bounds replay: a crash right after it recovers from
	// the snapshot alone (zero replayed records).
	_, ts2, _, _ := durableFixture(t, dir)
	var st Status
	get(t, ts2, "/v1/status", &st)
	if st.Accesses != 1 {
		t.Fatalf("snapshot-recovered status %+v", st)
	}
	if _, metrics := getRaw(t, ts2, "/v1/metrics"); !strings.Contains(metrics, MetricRecoveryReplayed+`{tenant="default"} 0`+"\n") {
		t.Fatalf("expected snapshot-only recovery (0 replayed records):\n%s", metrics)
	}

	// Durability off: the endpoint must refuse rather than pretend.
	_, plain, _, _ := fixture(t)
	if code := post(t, plain, "/v1/admin/snapshot", SnapshotRequest{}, &apiErr); code != http.StatusBadRequest {
		t.Fatalf("snapshot without data dir status %d", code)
	}
	if !strings.Contains(apiErr.Error, "durability is disabled") {
		t.Fatalf("unhelpful error: %+v", apiErr)
	}
}

// TestDurablePerTenantIsolation checks that two tenants journal and recover
// independently — tenant A's records never leak into tenant B.
func TestDurablePerTenantIsolation(t *testing.T) {
	dir := t.TempDir()
	_, ts, bgE, bgP := durableFixture(t, dir)
	for i := 0; i < 4; i++ {
		postTenant(t, ts, "alpha", "/v1/access", AccessRequest{EmployeeID: bgE, PatientID: bgP}, nil)
	}
	for i := 0; i < 7; i++ {
		postTenant(t, ts, "beta", "/v1/access", AccessRequest{EmployeeID: bgE, PatientID: bgP}, nil)
	}
	_, wantAlpha := getRaw(t, ts, "/v1/status?tenant=alpha")
	_, wantBeta := getRaw(t, ts, "/v1/status?tenant=beta")

	_, ts2, _, _ := durableFixture(t, dir)
	if _, got := getRaw(t, ts2, "/v1/status?tenant=alpha"); got != wantAlpha {
		t.Fatalf("alpha diverged:\n got %s\nwant %s", got, wantAlpha)
	}
	if _, got := getRaw(t, ts2, "/v1/status?tenant=beta"); got != wantBeta {
		t.Fatalf("beta diverged:\n got %s\nwant %s", got, wantBeta)
	}
}

// TestCycleSummaryEndpoint pins the read-only summary route used by the
// crash drill: wrong method, unknown tenant, and a live summary.
func TestCycleSummaryEndpoint(t *testing.T) {
	_, ts, bgE, bgP := fixture(t)
	post(t, ts, "/v1/access", AccessRequest{EmployeeID: bgE, PatientID: bgP}, nil)
	var sum core.CycleSummary
	if code := get(t, ts, "/v1/cycle/summary", &sum); code != http.StatusOK {
		t.Fatalf("summary status %d", code)
	}
	if sum.Alerts != 1 {
		t.Fatalf("summary %+v", sum)
	}
	if code := get(t, ts, "/v1/cycle/summary?tenant=ghost", nil); code != http.StatusNotFound {
		t.Fatalf("unknown tenant summary status %d", code)
	}
	resp, err := http.Post(ts.URL+"/v1/cycle/summary", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST on summary status %d", resp.StatusCode)
	}
}

// TestDurableAutoSnapshotCadence sets a tiny SnapshotEvery and checks the
// background snapshot fires (journal position counter resets and the next
// boot recovers from a snapshot, not a cold replay of everything).
func TestDurableAutoSnapshotCadence(t *testing.T) {
	dir := t.TempDir()
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
			return []float64{196.57, 29.02, 140.46, 10.84, 25.43, 15.14, 43.27}, nil
		}),
		Seed:          1,
		Clock:         func() time.Duration { return 9 * time.Hour },
		DataDir:       dir,
		Fsync:         wal.FsyncAlways,
		SnapshotEvery: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	for i := 0; i < 20; i++ {
		post(t, ts, "/v1/access", AccessRequest{EmployeeID: bgE, PatientID: bgP}, nil)
	}
	// Background snapshots are asynchronous; wait until the scan has nothing
	// left to snapshot. Ask the journal, not the directory: Recover on a live
	// journal trims its preallocated tail and can cut a frame mid-write.
	tn, _ := srv.router.Get(DefaultTenantID)
	j := tn.Data.(*tenantState).journal
	deadline := time.Now().Add(5 * time.Second)
	for st := j.RetainStats(); st.SnapshotSeg < 0 || st.TailRecords >= 5; st = j.RetainStats() {
		if time.Now().After(deadline) {
			t.Fatal("no automatic snapshot within 5s despite SnapshotEvery=5")
		}
		time.Sleep(20 * time.Millisecond)
	}
	_, wantStatus := getRaw(t, ts, "/v1/status")
	_, ts2, _, _ := durableFixture(t, dir)
	if _, got := getRaw(t, ts2, "/v1/status"); got != wantStatus {
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
	_, ts, bgE, bgP := replicaFixture(t, dir, cadence)
	for i := 0; i < 4; i++ {
		post(t, ts, "/v1/access", AccessRequest{EmployeeID: bgE, PatientID: bgP}, nil)
	}
	// No Close (a kill -9 writes no shutdown snapshot): reboot on a copy.
	crashed := t.TempDir()
	copyTree(t, dir, crashed)
	srv2, ts2, _, _ := replicaFixture(t, crashed, cadence)
	defer srv2.Close()
	post(t, ts2, "/v1/access", AccessRequest{EmployeeID: bgE, PatientID: bgP}, nil)
	tn, _ := srv2.router.Get(DefaultTenantID)
	j := tn.Data.(*tenantState).journal
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
		_, ts, bgE, bgP := replicaFixture(t, dir, func(cfg *Config) {
			cfg.Budget = 6 // short of the day's volume, so θ follows the rates
			cfg.Estimator = rollback
			cfg.Clock = func() time.Duration { return time.Duration(clock.Load()) }
		})
		return ts, bgE, bgP
	}
	// Each access comes 20 minutes after the one before.
	access := func(ts *httptest.Server, bgE, bgP int) string {
		clock.Add(int64(20 * time.Minute))
		code, body, _ := postRaw(t, ts, "/v1/access", AccessRequest{EmployeeID: bgE, PatientID: bgP})
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
		if code := post(t, ts, "/v1/admin/snapshot", SnapshotRequest{}, nil); code != http.StatusOK {
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
			_, body := getRaw(t, ts, path)
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
	cfg, _, _ := durableConfig(t, dir, nil)
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
// its cleanly closed dir exactly as it was — no fresh segment, no byte
// changed — for each refusal replay can make: a snapshot in an unknown
// format, a snapshot RestoreState refuses and a tail decision out of
// sequence. The journal is opened for writing only once the tenant restored.
func TestRefusedBootWritesNothing(t *testing.T) {
	src := t.TempDir()
	srv, ts, bgE, bgP := durableFixture(t, src)
	for i := 0; i < 3; i++ {
		if code := post(t, ts, "/v1/access", AccessRequest{EmployeeID: bgE, PatientID: bgP}, nil); code != http.StatusOK {
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
			dir := t.TempDir()
			j, _, err := wal.Open(filepath.Join(dir, "tenants", "t-"+DefaultTenantID), wal.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if err := j.Snapshot(c.snapshot); err != nil {
				t.Fatal(err)
			}
			for _, r := range c.tail {
				wait, err := j.Append(r)
				if err == nil {
					err = wait()
				}
				if err != nil {
					t.Fatal(err)
				}
			}
			if err := j.Close(); err != nil {
				t.Fatal(err)
			}
			refuseBoot(t, dir)
		})
	}
}

// TestBootRefusesMoreTenantsThanTheCap: a data dir holding more tenants than
// MaxTenants does not boot with an arbitrary subset of them, and the journals
// the failed boot opened are sealed again; under a cap that fits, every
// tenant is resident and answers as before the restart.
func TestBootRefusesMoreTenantsThanTheCap(t *testing.T) {
	dir := t.TempDir()
	srv, ts, bgE, bgP := durableFixture(t, dir)
	ids := []string{"a", "b", DefaultTenantID}
	want := make(map[string]string)
	for _, id := range ids {
		if code := postTenant(t, ts, id, "/v1/access", AccessRequest{EmployeeID: bgE, PatientID: bgP}, nil); code != http.StatusOK {
			t.Fatalf("access for %s: status %d", id, code)
		}
	}
	for _, id := range ids {
		_, want[id] = getRaw(t, ts, "/v1/status?tenant="+id)
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
	cfg, _, _ := durableConfig(t, dir, func(cfg *Config) {
		cfg.MaxTenants = 2
		cfg.Fsync = wal.FsyncInterval
	})
	if _, err := New(cfg); !errors.Is(err, shard.ErrTenantLimit) {
		t.Fatalf("New over 3 tenants with MaxTenants 2: err %v, want %v", err, shard.ErrTenantLimit)
	}
	if got := tickers(); got != before {
		t.Fatalf("the refused boot left %d journal tickers running", got-before)
	}

	srv2, ts2, _, _ := replicaFixture(t, dir, func(cfg *Config) { cfg.MaxTenants = 3 })
	defer srv2.Close()
	if got := srv2.Tenants(); !slices.Equal(got, ids) {
		t.Fatalf("resident after boot: %v", got)
	}
	for _, id := range ids {
		if _, got := getRaw(t, ts2, "/v1/status?tenant="+id); got != want[id] {
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
	cfg, bgE, bgP := durableConfig(b, b.TempDir(), func(cfg *Config) {
		cfg.Budget = 1e4 // enough that no decision in the cycle runs dry
		cfg.Fsync = wal.FsyncNone
		cfg.CompactInterval = time.Hour
		cfg.SnapshotEvery = 1 << 30
	})
	do := func(h http.Handler, method, target, body string) string {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, target, strings.NewReader(body)))
		if rec.Code != http.StatusOK {
			b.Fatalf("%s %s: status %d: %s", method, target, rec.Code, rec.Body)
		}
		return rec.Body.String()
	}
	tenantOf := func(srv *Server) *tenantState {
		tn, ok := srv.router.Get(DefaultTenantID)
		if !ok {
			b.Fatal("default tenant not resident")
		}
		return tn.Data.(*tenantState)
	}
	srv, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	h := srv.Handler()
	alert := fmt.Sprintf(`{"employee_id":%d,"patient_id":%d}`, bgE, bgP)
	for i := 0; i < decisions; i++ {
		do(h, http.MethodPost, "/v1/access", alert)
	}
	if err := srv.snapshotTenant(tenantOf(srv)); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < tail; i++ {
		do(h, http.MethodPost, "/v1/access", alert)
	}
	want := do(h, http.MethodGet, "/v1/status", "")
	// No Close first (a kill -9 writes no shutdown snapshot); the tail is
	// flushed, as a box under -fsync always would have it.
	if err := tenantOf(srv).journal.Sync(); err != nil {
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
	if got := do(booted.Handler(), http.MethodGet, "/v1/status", ""); got != want {
		b.Fatalf("the killed box booted to a different status:\n got %s\nwant %s", got, want)
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
		t := tenantOf(booted)
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
			cfg, bgE, bgP := durableConfig(b, b.TempDir(), func(cfg *Config) { cfg.MaxTenants = n + 1 })
			do := func(h http.Handler, method, target, body string) string {
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(method, target, strings.NewReader(body)))
				if rec.Code != http.StatusOK {
					b.Fatalf("%s %s: status %d: %s", method, target, rec.Code, rec.Body)
				}
				return rec.Body.String()
			}
			srv, err := New(cfg)
			if err != nil {
				b.Fatal(err)
			}
			h := srv.Handler()
			for i := 0; i < n; i++ {
				body := fmt.Sprintf(`{"employee_id":%d,"patient_id":%d,"tenant":"t%03d"}`, bgE, bgP, i)
				for k := 0; k < 3; k++ {
					do(h, http.MethodPost, "/v1/access", body)
				}
			}
			want := do(h, http.MethodGet, "/v1/status?tenant=t000", "")
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
				if got := do(srv.Handler(), http.MethodGet, "/v1/status?tenant=t000", ""); got != want {
					b.Fatalf("t000 diverged:\n got %s\nwant %s", got, want)
				}
				if err := srv.Close(); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
			}
		})
	}
}
