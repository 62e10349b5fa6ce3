package server

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"testing"
	"time"

	"github.com/auditgames/sag/internal/core"
	"github.com/auditgames/sag/internal/dist"
	"github.com/auditgames/sag/internal/emr"
)

var updateGolden = flag.Bool("update", false, "rewrite golden replay snapshots under testdata/")

// replayEvent is one access of the replayed day and the server's verbatim
// answer to it. The full AccessResponse is embedded, so any drift in the
// decision pipeline — a different warn draw, a changed budget charge, an
// unexpected fallback — shows up as a golden diff pinned to the exact event.
type replayEvent struct {
	Index    int            `json:"index"`
	Tenant   string         `json:"tenant,omitempty"`
	Employee int            `json:"employee_id"`
	Patient  int            `json:"patient_id"`
	Code     int            `json:"code"`
	Response AccessResponse `json:"response"`
}

// replaySnapshot is the golden file layout: the per-event transcript plus
// the end-of-day rollups. encoding/json sorts map keys, so the snapshot is
// byte-stable across runs.
type replaySnapshot struct {
	Events    []replayEvent                `json:"events"`
	Summaries map[string]core.CycleSummary `json:"summaries"`
	Statuses  map[string]Status            `json:"statuses"`
}

// TestGoldenReplaySingleTenant replays one generated day of EMR traffic
// through the HTTP API against the default tenant and compares every
// response byte-for-byte with the recorded snapshot. The whole pipeline is
// deterministic — fixed world/generator seeds, a fixed-rate estimator, the
// real LP solver, and a sequential replay driving the engine's seeded rng —
// so any diff is a behavior change, not noise. Regenerate with
//
//	go test ./internal/server -run TestGoldenReplay -update
func TestGoldenReplaySingleTenant(t *testing.T) {
	runGoldenReplay(t, nil, "golden_replay_single.json")
}

// TestGoldenReplayMultiTenant replays the same day fanned round-robin
// across four tenants. Beyond determinism it pins the isolation story:
// each tenant's transcript, budget drawdown, and cycle summary must be a
// pure function of the events routed to it.
func TestGoldenReplayMultiTenant(t *testing.T) {
	runGoldenReplay(t, []string{"ward-a", "ward-b", "ward-c", "ward-d"}, "golden_replay_multi.json")
}

func runGoldenReplay(t *testing.T, tenants []string, goldenFile string) {
	t.Helper()
	world, err := emr.NewWorld(emr.WorldConfig{Seed: 5, Employees: 30, Patients: 100, Departments: 4})
	if err != nil {
		t.Fatal(err)
	}
	var volumes [emr.NumKinds]dist.Normal
	for k := range volumes {
		volumes[k] = dist.Normal{Mu: 3, Sigma: 1}
	}
	gen, err := emr.NewGenerator(world, emr.GeneratorConfig{
		Seed:             7,
		PairsPerKind:     3,
		BackgroundPerDay: 30,
		Volumes:          volumes,
	})
	if err != nil {
		t.Fatal(err)
	}
	// The clock follows the replayed event stream; requests are sequential,
	// so the plain variable is race-free.
	clock := time.Duration(0)
	srv, _, _, _ := testServer(t, func(cfg *Config) {
		cfg.World = world
		cfg.MaxTenants = 8
		cfg.Clock = func() time.Duration { return clock }
	})
	h := srv.Handler()

	events := gen.Day(0)
	if len(events) == 0 {
		t.Fatal("generator produced an empty day")
	}
	snap := replaySnapshot{Summaries: map[string]core.CycleSummary{}, Statuses: map[string]Status{}}
	for i, ev := range events {
		clock = ev.Time
		tenant := ""
		if len(tenants) > 0 {
			tenant = tenants[i%len(tenants)]
		}
		re := replayEvent{Index: i, Tenant: tenant, Employee: ev.EmployeeID, Patient: ev.PatientID}
		code, body, _ := do(t, h, "POST", "/v1/access", tenant, AccessRequest{EmployeeID: ev.EmployeeID, PatientID: ev.PatientID})
		if code != http.StatusOK {
			t.Fatalf("event %d: access status %d", i, code)
		}
		re.Code, re.Response = code, decode[AccessResponse](t, body)
		if re.Response.Fallback != "" {
			t.Fatalf("event %d: replay degraded to %q; the golden path must be fully solved", i, re.Response.Fallback)
		}
		snap.Events = append(snap.Events, re)
	}
	snap.Summaries = srv.CycleSummaries()
	for _, id := range srv.Tenants() {
		code, body, _ := do(t, h, "GET", "/v1/status?tenant="+id, "", nil)
		if code != http.StatusOK {
			t.Fatalf("status for %q: %d", id, code)
		}
		snap.Statuses[id] = decode[Status](t, body)
	}

	got, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')

	path := filepath.Join("testdata", goldenFile)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d events)", path, len(snap.Events))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v — run `go test ./internal/server -run TestGoldenReplay -update` to record the snapshot", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal(diffSnapshots(want, got))
	}
}

// diffSnapshots renders the first divergence between two golden snapshots
// with a few lines of context, so a failure message names the drifting
// event instead of dumping two multi-kilobyte blobs.
func diffSnapshots(want, got []byte) string {
	wl, gl := bytes.Split(want, []byte("\n")), bytes.Split(got, []byte("\n"))
	n := len(wl)
	if len(gl) < n {
		n = len(gl)
	}
	for i := 0; i < n; i++ {
		if !bytes.Equal(wl[i], gl[i]) {
			lo := i - 2
			if lo < 0 {
				lo = 0
			}
			var b bytes.Buffer
			fmt.Fprintf(&b, "golden replay diverges at line %d:\n", i+1)
			for j := lo; j <= i; j++ {
				fmt.Fprintf(&b, "  want: %s\n", wl[j])
			}
			for j := lo; j <= i; j++ {
				fmt.Fprintf(&b, "  got:  %s\n", gl[j])
			}
			return b.String()
		}
	}
	return fmt.Sprintf("golden replay length changed: want %d lines, got %d", len(wl), len(gl))
}
