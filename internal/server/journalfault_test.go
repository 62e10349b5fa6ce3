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
	_, bgE, bgP := testConfig(t) // the planted pair of every server below
	alert := AccessRequest{EmployeeID: bgE, PatientID: bgP}
	scenarios := []struct {
		name string
		// prep runs with the fault disarmed (extra state some scenarios need).
		prep func(t *testing.T, ts *httptest.Server)
		// path and body are the request whose journal append will fail.
		path string
		body any
	}{
		// Gamed alert: the engine commits, journals through its hook, and
		// must roll the decision (budget, decision list, signal draw) back
		// when the append fails.
		{name: "decision", path: "/v1/access", body: alert},
		// Benign access: the handler counted it before journaling the
		// bare-access meta record.
		{name: "benign-meta", path: "/v1/access", body: AccessRequest{EmployeeID: 0, PatientID: 0}},
		// Malformed access (unknown employee): counted, then journaled, then
		// answered 400 — the journal failure must win and the count must
		// roll back.
		{name: "malformed-meta", path: "/v1/access", body: AccessRequest{EmployeeID: 1 << 20, PatientID: 0}},
		{
			// Flagged quitter's alert: accesses, alerts, and warned all
			// increment before the meta record is appended.
			name: "flagged-meta",
			prep: func(t *testing.T, ts *httptest.Server) {
				if code, _, _ := do(t, ts.URL, "POST", "/v1/quit", "", QuitRequest{EmployeeID: bgE}); code != http.StatusOK {
					t.Fatalf("prep quit status %d", code)
				}
			},
			path: "/v1/access", body: alert,
		},
		// First quit: flag map, flagged gauge, and quit counter mutate before
		// the KindQuit record.
		{name: "quit", path: "/v1/quit", body: QuitRequest{EmployeeID: 5}},
		// Cycle close: the plan was drawn and closed was set.
		{name: "close", path: "/v1/cycle/close", body: CloseRequest{}},
		// Cycle open: journaled first, so a failed append must leave the old
		// cycle (decisions, counters, budget chain) fully intact.
		{name: "new-cycle", path: "/v1/cycle/new", body: NewCycleRequest{Budget: 40}},
	}

	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			dir := t.TempDir()
			srv, ts, _, _ := testServer(t, durableIn(dir))

			// Warm traffic across record kinds, fault disarmed.
			for i := 0; i < 4; i++ {
				if code, _, _ := do(t, ts.URL, "POST", "/v1/access", "", alert); code != http.StatusOK {
					t.Fatalf("warm access status %d", code)
				}
			}
			do(t, ts.URL, "POST", "/v1/access", "", AccessRequest{EmployeeID: 0, PatientID: 0})
			if code, _, _ := do(t, ts.URL, "POST", "/v1/quit", "", QuitRequest{EmployeeID: 3}); code != http.StatusOK {
				t.Fatalf("warm quit status %d", code)
			}
			if sc.prep != nil {
				sc.prep(t, ts)
			}

			srv.SetJournalFault(alwaysFail())
			if code, _, _ := do(t, ts.URL, "POST", sc.path, "", sc.body); code != http.StatusInternalServerError {
				t.Fatalf("faulted %s request: status %d, want 500", sc.name, code)
			}
			srv.SetJournalFault(nil)

			// Boot a "crash-recovered" twin from a byte copy of the data dir
			// (no clean shutdown: replay is all it gets).
			dir2 := t.TempDir()
			copyTree(t, dir, dir2)
			_, ts2, _, _ := testServer(t, durableIn(dir2))
			for _, path := range []string{"/v1/status", "/v1/cycle/summary"} {
				code, live, _ := do(t, ts.URL, "GET", path, "", nil)
				if _, got, _ := do(t, ts2.URL, "GET", path, "", nil); code != http.StatusOK || got != live {
					t.Fatalf("post-failure %s diverges from crash replay:\nlive:      %d %s\nrecovered: %s", path, code, live, got)
				}
			}

			// Drive both servers forward identically: every response — and
			// in particular every signal draw — must stay byte-identical,
			// proving the rollback left the RNG stream aligned, not just
			// the counters.
			for i := 0; i < 3; i++ {
				c1, r1, _ := do(t, ts.URL, "POST", "/v1/access", "", alert)
				c2, r2, _ := do(t, ts2.URL, "POST", "/v1/access", "", alert)
				if c1 != c2 || r1 != r2 {
					t.Fatalf("post-rollback access %d diverges:\nlive:      %d %s\nrecovered: %d %s", i, c1, r1, c2, r2)
				}
			}
			// The audit plan is the cycle's final word: its sampling seed
			// folds in the access count, so it diverges loudly if any
			// rolled-back request was half-remembered.
			c1, p1, _ := do(t, ts.URL, "POST", "/v1/cycle/close", "", CloseRequest{})
			c2, p2, _ := do(t, ts2.URL, "POST", "/v1/cycle/close", "", CloseRequest{})
			if c1 != c2 || p1 != p2 {
				t.Fatalf("audit plans diverge:\nlive:      %d %s\nrecovered: %d %s", c1, p1, c2, p2)
			}
		})
	}
}

// TestJournalFaultRollbackMetric: a rolled-back decision is observable.
func TestJournalFaultRollbackMetric(t *testing.T) {
	dir := t.TempDir()
	srv, ts, bgE, bgP := testServer(t, durableIn(dir))
	srv.SetJournalFault(alwaysFail())
	if code, _, _ := do(t, ts.URL, "POST", "/v1/access", "", AccessRequest{EmployeeID: bgE, PatientID: bgP}); code != http.StatusInternalServerError {
		t.Fatalf("faulted decision: status %d, want 500", code)
	}
	srv.SetJournalFault(nil)
	if _, body, _ := do(t, ts.URL, "GET", "/v1/metrics", "", nil); !strings.Contains(body, "sag_engine_journal_rollbacks_total") {
		t.Fatal("metrics export missing sag_engine_journal_rollbacks_total")
	}
}

// TestJournalFaultIntermittent hammers one tenant with a 30% append failure
// rate and then requires the surviving state to equal its own crash replay —
// the accumulated effect of many interleaved rollbacks must still be exactly
// the journal's contents.
func TestJournalFaultIntermittent(t *testing.T) {
	dir := t.TempDir()
	srv, ts, bgE, bgP := testServer(t, durableIn(dir))
	srv.SetJournalFault(faultinject.New("journal", faultinject.Config{Seed: 7, ErrorRate: 0.3}))
	oks, fails := 0, 0
	for i := 0; i < 40; i++ {
		var code int
		switch i % 4 {
		case 0, 1:
			code, _, _ = do(t, ts.URL, "POST", "/v1/access", "", AccessRequest{EmployeeID: bgE, PatientID: bgP})
		case 2:
			code, _, _ = do(t, ts.URL, "POST", "/v1/access", "", AccessRequest{EmployeeID: 0, PatientID: 0})
		case 3:
			code, _, _ = do(t, ts.URL, "POST", "/v1/quit", "", QuitRequest{EmployeeID: i % 7})
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

	dir2 := t.TempDir()
	copyTree(t, dir, dir2)
	_, ts2, _, _ := testServer(t, durableIn(dir2))
	for _, path := range []string{"/v1/status", "/v1/cycle/summary"} {
		code, live, _ := do(t, ts.URL, "GET", path, "", nil)
		if _, got, _ := do(t, ts2.URL, "GET", path, "", nil); code != http.StatusOK || got != live {
			t.Fatalf("%s diverges after intermittent faults:\nlive:      %d %s\nrecovered: %s", path, code, live, got)
		}
	}
	c1, p1, _ := do(t, ts.URL, "POST", "/v1/cycle/close", "", CloseRequest{})
	c2, p2, _ := do(t, ts2.URL, "POST", "/v1/cycle/close", "", CloseRequest{})
	if c1 != c2 || p1 != p2 {
		t.Fatalf("audit plans diverge after intermittent faults:\nlive:      %d %s\nrecovered: %d %s", c1, p1, c2, p2)
	}
}
