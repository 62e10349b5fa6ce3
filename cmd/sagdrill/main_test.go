package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestBuildScriptDeterministic(t *testing.T) {
	a := buildScript(7, 30, 120, 600)
	b := buildScript(7, 30, 120, 600)
	if len(a) != len(b) || len(a) != 31 { // 30 accesses + 1 quit
		t.Fatalf("script lengths %d/%d, want 31", len(a), len(b))
	}
	quits := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at op %d: %+v vs %+v", i, a[i], b[i])
		}
		if a[i].quit {
			quits++
			if a[i].employee != 120 {
				t.Fatalf("quit must target the first planted employee: %+v", a[i])
			}
			continue
		}
		// Accesses are either benign (0,0) or the first planted pair of one
		// of three kinds: (120+120k, 600+120k).
		benign := a[i].employee == 0 && a[i].patient == 0
		planted := a[i].employee%120 == 0 && a[i].employee >= 120 && a[i].employee <= 360 &&
			a[i].patient == a[i].employee+480
		if !benign && !planted {
			t.Fatalf("op %d is neither benign nor a planted pair: %+v", i, a[i])
		}
	}
	if quits != 1 {
		t.Fatalf("%d quit ops, want 1", quits)
	}
	if c := buildScript(8, 30, 120, 600); len(c) == len(a) {
		same := true
		for i := range c {
			if c[i] != a[i] {
				same = false
				break
			}
		}
		if same {
			t.Fatal("different seeds produced identical scripts")
		}
	}
}

// serverBuild is the one sagserver binary every subprocess test of a package
// run shares; TestMain removes it.
var serverBuild struct {
	once sync.Once
	dir  string
	err  error
}

func TestMain(m *testing.M) {
	code := m.Run()
	os.RemoveAll(serverBuild.dir)
	os.Exit(code)
}

// buildServer compiles sagserver once per package run, or skips the test
// when the toolchain (or -short mode) rules the subprocess drill out.
func buildServer(t *testing.T) string {
	t.Helper()
	if testing.Short() {
		t.Skip("subprocess drill skipped in -short mode")
	}
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go toolchain not in PATH")
	}
	b := &serverBuild
	b.once.Do(func() {
		if b.dir, b.err = os.MkdirTemp("", "sagdrill-test-*"); b.err != nil {
			return
		}
		build := exec.Command(goBin, "build", "-o", filepath.Join(b.dir, "sagserver"), "github.com/auditgames/sag/cmd/sagserver")
		build.Stderr = os.Stderr
		b.err = build.Run()
	})
	if b.err != nil {
		t.Fatalf("building sagserver: %v", b.err)
	}
	return filepath.Join(b.dir, "sagserver")
}

// TestStartNoticesDeadChild: a server binary that exits during boot (a bad
// flag, a lost port) must fail the start step at once with its exit status,
// not after polling /v1/healthz for the whole -start-wait.
func TestStartNoticesDeadChild(t *testing.T) {
	bin, err := exec.LookPath("false")
	if err != nil {
		t.Skip("no false(1) in PATH")
	}
	s := newScenario(config{serverBin: bin, startWait: time.Minute}, nil, 0, 0)
	t0 := time.Now()
	_, err = s.run([]step{{do: start, role: primary}})
	if err == nil || !strings.Contains(err.Error(), "exit status 1") {
		t.Fatalf("start of a binary that exits at once: err = %v, want its exit status", err)
	}
	if took := time.Since(t0); took > 2*time.Second {
		t.Fatalf("start took %v to notice the dead child, want < 2s", took)
	}
}

// TestDrillEndToEnd runs the full drill machinery — golden run, mid-request
// SIGKILL, recovery, resume — against a real sagserver subprocess over a
// small world, and requires the recovered fingerprint to match the golden
// one. This is the same assertion the CI crash-drill job makes, shrunk to
// test size.
func TestDrillEndToEnd(t *testing.T) {
	if err := drillRun(config{
		serverBin: buildServer(t),
		seed:      3,
		requests:  14,
		employees: 60,
		patients:  300,
		history:   6,
		startWait: 2 * time.Minute,
	}); err != nil {
		t.Fatalf("drill: %v", err)
	}
}

// TestFailoverDrillEndToEnd runs the failover drill — primary + WAL-shipping
// standby, forced snapshot re-seed after a gapped cursor, mid-request
// SIGKILL of the primary, promotion, resume — and requires the promoted
// standby's fingerprint to match the golden uninterrupted run. Same
// assertion as the CI failover-drill job, shrunk to test size.
func TestFailoverDrillEndToEnd(t *testing.T) {
	if err := drillRun(config{
		serverBin: buildServer(t),
		mode:      "failover",
		seed:      5,
		requests:  14,
		employees: 60,
		patients:  300,
		history:   6,
		startWait: 2 * time.Minute,
	}); err != nil {
		t.Fatalf("failover drill: %v", err)
	}
}

// TestRetentionDrillEndToEnd runs the retention drill — a primary under a
// tiny disk budget with a fast compactor, a standby tailing it live through
// at least three snapshot-then-prune rounds with zero re-seeds, promotion,
// byte-compare against golden. Same assertion as the CI failover-drill job's
// retention step, shrunk to test size.
func TestRetentionDrillEndToEnd(t *testing.T) {
	if err := drillRun(config{
		serverBin: buildServer(t),
		mode:      "retention",
		seed:      7,
		requests:  12,
		employees: 60,
		patients:  300,
		history:   6,
		startWait: 2 * time.Minute,
	}); err != nil {
		t.Fatalf("retention drill: %v", err)
	}
}
