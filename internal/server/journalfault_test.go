package server

import (
	"io/fs"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/auditgames/sag/internal/faultinject"
)

// The journal-failure consistency suite: every mutation handler is driven
// into a WAL-append failure (via the Server's journal fault point) and the
// server's post-failure in-memory state must be byte-identical to what a
// crash-recovery replay of the same directory produces — i.e. a 500 means
// "this request never happened", in memory exactly as on disk.
// (postRaw, the byte-compare helper, lives in replication_test.go.)

// copyTree clones a data dir so a "crash-recovered" server can boot from the
// exact bytes the live server had durable, without sharing file handles.
func copyTree(t testing.TB, src, dst string) {
	t.Helper()
	err := filepath.WalkDir(src, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, p)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		blob, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		return os.WriteFile(target, blob, 0o644)
	})
	if err != nil {
		t.Fatalf("copying data dir: %v", err)
	}
}

// alwaysFail is a fault point that fails every journal append.
func alwaysFail() *faultinject.Point {
	return faultinject.New("journal", faultinject.Config{Seed: 1, ErrorRate: 1})
}

func TestJournalFaultLeavesRecoverableState(t *testing.T) {
	scenarios := []struct {
		name string
		// prep runs with the fault disarmed (extra state some scenarios need).
		prep func(t *testing.T, ts *httptest.Server, bgE, bgP int)
		// hit issues the request whose journal append will fail.
		hit func(t *testing.T, ts *httptest.Server, bgE, bgP int) int
	}{
		{
			// Gamed alert: the engine commits, journals through its hook,
			// and must roll the decision (budget, decision list, signal
			// draw) back when the append fails.
			name: "decision",
			hit: func(t *testing.T, ts *httptest.Server, bgE, bgP int) int {
				return post(t, ts, "/v1/access", AccessRequest{EmployeeID: bgE, PatientID: bgP}, nil)
			},
		},
		{
			// Benign access: the handler counted it before journaling the
			// bare-access meta record.
			name: "benign-meta",
			hit: func(t *testing.T, ts *httptest.Server, bgE, bgP int) int {
				return post(t, ts, "/v1/access", AccessRequest{EmployeeID: 0, PatientID: 0}, nil)
			},
		},
		{
			// Malformed access (unknown employee): counted, then journaled,
			// then answered 400 — the journal failure must win and the
			// count must roll back.
			name: "malformed-meta",
			hit: func(t *testing.T, ts *httptest.Server, bgE, bgP int) int {
				return post(t, ts, "/v1/access", AccessRequest{EmployeeID: 1 << 20, PatientID: 0}, nil)
			},
		},
		{
			// Flagged quitter's alert: accesses, alerts, and warned all
			// increment before the meta record is appended.
			name: "flagged-meta",
			prep: func(t *testing.T, ts *httptest.Server, bgE, bgP int) {
				if code := post(t, ts, "/v1/quit", QuitRequest{EmployeeID: bgE}, nil); code != http.StatusOK {
					t.Fatalf("prep quit status %d", code)
				}
			},
			hit: func(t *testing.T, ts *httptest.Server, bgE, bgP int) int {
				return post(t, ts, "/v1/access", AccessRequest{EmployeeID: bgE, PatientID: bgP}, nil)
			},
		},
		{
			// First quit: flag map, flagged gauge, and quit counter mutate
			// before the KindQuit record.
			name: "quit",
			hit: func(t *testing.T, ts *httptest.Server, bgE, bgP int) int {
				return post(t, ts, "/v1/quit", QuitRequest{EmployeeID: 5}, nil)
			},
		},
		{
			// Cycle close: the plan was drawn and closed was set.
			name: "close",
			hit: func(t *testing.T, ts *httptest.Server, bgE, bgP int) int {
				return post(t, ts, "/v1/cycle/close", CloseRequest{}, nil)
			},
		},
		{
			// Cycle open: journaled first, so a failed append must leave the
			// old cycle (decisions, counters, budget chain) fully intact.
			name: "new-cycle",
			hit: func(t *testing.T, ts *httptest.Server, bgE, bgP int) int {
				return post(t, ts, "/v1/cycle/new", NewCycleRequest{Budget: 40}, nil)
			},
		},
	}

	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			dir := t.TempDir()
			srv, ts, bgE, bgP := durableFixture(t, dir)

			// Warm traffic across record kinds, fault disarmed.
			for i := 0; i < 4; i++ {
				if code := post(t, ts, "/v1/access", AccessRequest{EmployeeID: bgE, PatientID: bgP}, nil); code != http.StatusOK {
					t.Fatalf("warm access status %d", code)
				}
			}
			post(t, ts, "/v1/access", AccessRequest{EmployeeID: 0, PatientID: 0}, nil)
			if code := post(t, ts, "/v1/quit", QuitRequest{EmployeeID: 3}, nil); code != http.StatusOK {
				t.Fatalf("warm quit status %d", code)
			}
			if sc.prep != nil {
				sc.prep(t, ts, bgE, bgP)
			}

			srv.SetJournalFault(alwaysFail())
			if code := sc.hit(t, ts, bgE, bgP); code != http.StatusInternalServerError {
				t.Fatalf("faulted %s request: status %d, want 500", sc.name, code)
			}
			srv.SetJournalFault(nil)

			liveStatus := mustGetRaw(t, ts, "/v1/status")
			liveSummary := mustGetRaw(t, ts, "/v1/cycle/summary")

			// Boot a "crash-recovered" twin from a byte copy of the data dir
			// (no clean shutdown: replay is all it gets).
			dir2 := t.TempDir()
			copyTree(t, dir, dir2)
			_, ts2, _, _ := durableFixture(t, dir2)

			if got := mustGetRaw(t, ts2, "/v1/status"); got != liveStatus {
				t.Fatalf("post-failure status diverges from crash replay:\nlive:      %s\nrecovered: %s", liveStatus, got)
			}
			if got := mustGetRaw(t, ts2, "/v1/cycle/summary"); got != liveSummary {
				t.Fatalf("post-failure summary diverges from crash replay:\nlive:      %s\nrecovered: %s", liveSummary, got)
			}

			// Drive both servers forward identically: every response — and
			// in particular every signal draw — must stay byte-identical,
			// proving the rollback left the RNG stream aligned, not just
			// the counters.
			for i := 0; i < 3; i++ {
				req := AccessRequest{EmployeeID: bgE, PatientID: bgP}
				c1, r1, _ := postRaw(t, ts, "/v1/access", req)
				c2, r2, _ := postRaw(t, ts2, "/v1/access", req)
				if c1 != c2 || r1 != r2 {
					t.Fatalf("post-rollback access %d diverges:\nlive:      %d %s\nrecovered: %d %s", i, c1, r1, c2, r2)
				}
			}
			// The audit plan is the cycle's final word: its sampling seed
			// folds in the access count, so it diverges loudly if any
			// rolled-back request was half-remembered.
			c1, p1, _ := postRaw(t, ts, "/v1/cycle/close", CloseRequest{})
			c2, p2, _ := postRaw(t, ts2, "/v1/cycle/close", CloseRequest{})
			if c1 != c2 || p1 != p2 {
				t.Fatalf("audit plans diverge:\nlive:      %d %s\nrecovered: %d %s", c1, p1, c2, p2)
			}
		})
	}
}

// mustGetRaw is getRaw asserting 200.
func mustGetRaw(t *testing.T, ts *httptest.Server, path string) string {
	t.Helper()
	code, raw := getRaw(t, ts, path)
	if code != http.StatusOK {
		t.Fatalf("GET %s: status %d: %s", path, code, raw)
	}
	return raw
}

// TestJournalFaultRollbackMetric: a rolled-back decision is observable.
func TestJournalFaultRollbackMetric(t *testing.T) {
	dir := t.TempDir()
	srv, ts, bgE, bgP := durableFixture(t, dir)
	srv.SetJournalFault(alwaysFail())
	if code := post(t, ts, "/v1/access", AccessRequest{EmployeeID: bgE, PatientID: bgP}, nil); code != http.StatusInternalServerError {
		t.Fatalf("faulted decision: status %d, want 500", code)
	}
	srv.SetJournalFault(nil)
	body := mustGetRaw(t, ts, "/v1/metrics")
	if !strings.Contains(body, "sag_engine_journal_rollbacks_total") {
		t.Fatal("metrics export missing sag_engine_journal_rollbacks_total")
	}
}

// TestJournalFaultIntermittent hammers one tenant with a 30% append failure
// rate and then requires the surviving state to equal its own crash replay —
// the accumulated effect of many interleaved rollbacks must still be exactly
// the journal's contents.
func TestJournalFaultIntermittent(t *testing.T) {
	dir := t.TempDir()
	srv, ts, bgE, bgP := durableFixture(t, dir)
	srv.SetJournalFault(faultinject.New("journal", faultinject.Config{Seed: 7, ErrorRate: 0.3}))
	oks, fails := 0, 0
	for i := 0; i < 40; i++ {
		var code int
		switch i % 4 {
		case 0, 1:
			code = post(t, ts, "/v1/access", AccessRequest{EmployeeID: bgE, PatientID: bgP}, nil)
		case 2:
			code = post(t, ts, "/v1/access", AccessRequest{EmployeeID: 0, PatientID: 0}, nil)
		case 3:
			code = post(t, ts, "/v1/quit", QuitRequest{EmployeeID: i % 7}, nil)
		}
		switch code {
		case http.StatusOK:
			oks++
		case http.StatusInternalServerError:
			fails++
		default:
			t.Fatalf("request %d: unexpected status %d", i, code)
		}
	}
	if oks == 0 || fails == 0 {
		t.Fatalf("want a mix of successes and injected failures, got %d ok / %d failed", oks, fails)
	}
	srv.SetJournalFault(nil)

	liveStatus := mustGetRaw(t, ts, "/v1/status")
	liveSummary := mustGetRaw(t, ts, "/v1/cycle/summary")
	dir2 := t.TempDir()
	copyTree(t, dir, dir2)
	_, ts2, _, _ := durableFixture(t, dir2)
	if got := mustGetRaw(t, ts2, "/v1/status"); got != liveStatus {
		t.Fatalf("status diverges after intermittent faults:\nlive:      %s\nrecovered: %s", liveStatus, got)
	}
	if got := mustGetRaw(t, ts2, "/v1/cycle/summary"); got != liveSummary {
		t.Fatalf("summary diverges after intermittent faults:\nlive:      %s\nrecovered: %s", liveSummary, got)
	}
	c1, p1, _ := postRaw(t, ts, "/v1/cycle/close", CloseRequest{})
	c2, p2, _ := postRaw(t, ts2, "/v1/cycle/close", CloseRequest{})
	if c1 != c2 || p1 != p2 {
		t.Fatalf("audit plans diverge after intermittent faults:\nlive:      %d %s\nrecovered: %d %s", c1, p1, c2, p2)
	}
}
