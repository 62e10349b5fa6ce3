package main

import (
	"io"
	"os"
	"path/filepath"
	"testing"
)

// TestSmokeAllWorkloads runs every workload at about a hundredth of its
// size against a real child sagserver built from this checkout — closed and
// open loop, durable and not, the crash/standby/drain phases, the oracle —
// and one of them traced, so the harness cannot rot unnoticed. It is short
// enough to run under -short.
func TestSmokeAllWorkloads(t *testing.T) {
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	outDir := filepath.Join(t.TempDir(), "out")
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(killAllChildren)
	var logw io.Writer = io.Discard
	if testing.Verbose() {
		logw = os.Stderr
	}
	digests := map[string]string{}
	for _, full := range workloads {
		w := full.shrunk(32)
		traced := w.Name == "alerts_durable"
		// The closed loops run until every tenant has sent its share however
		// short the window; the open loop's schedule has to be long enough
		// to give 32 tenants theirs.
		seconds := 0.15
		if w.Steps != nil {
			seconds = 1
		}
		run := func() *runner {
			r := &runner{root: root, outDir: outDir, wl: w, seed: 1, seconds: seconds, trace: traced, setups: 1, logw: logw}
			if err := r.run(); err != nil {
				t.Fatalf("%s: %v", w.Name, err)
			}
			if r.failed != 0 {
				t.Fatalf("%s: %d failed of %d attempted: %v", w.Name, r.failed, r.attempted, r.failures)
			}
			return r
		}
		r := run()
		digests[w.Name] = r.digest
		for _, d := range endToEnd {
			if r.m[d.Name] <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v, must be positive", w.Name, d.Name, r.m[d.Name])
			}
		}
		if r.digestOps != w.OraclePrefix {
			t.Errorf("%s: digest covers %d requests per tenant, want %d", w.Name, r.digestOps, w.OraclePrefix)
		}
		if got := r.m["game.lp_solves_per_decision"]; got != alertKinds {
			t.Errorf("%s: %v LP solves per decision, want %d", w.Name, got, alertKinds)
		}
		switch {
		case !w.Durable && r.m["wal.fsyncs_per_op"] != 0:
			t.Errorf("%s: fsyncs without a data dir", w.Name)
		case w.Durable && (r.m["wal.fsyncs_per_op"] <= 0 || r.m["wal.bytes_per_op"] <= 0):
			t.Errorf("%s: no journal activity on a durable workload", w.Name)
		}
		if w.Recover {
			for _, name := range []string{"lifecycle.recovery_s", "lifecycle.snapshot_ms", "lifecycle.cycle_roll_ms", "replica.catchup_s", "replica.records_per_s", "retain.pruned_segments_total"} {
				if r.m[name] <= 0 {
					t.Errorf("%s: %s = %v, must be positive", w.Name, name, r.m[name])
				}
			}
		}
		if traced {
			if r.m["trace.explained_ratio"] < 0.5 || r.m["server.handler_us"] <= 0 || r.m["wal.append_always_us"] <= 0 {
				t.Errorf("%s: traced run left explained_ratio=%v handler_us=%v append_always_us=%v",
					w.Name, r.m["trace.explained_ratio"], r.m["server.handler_us"], r.m["wal.append_always_us"])
			}
			if _, err := os.Stat(filepath.Join(outDir, "trace_"+w.Name+".json")); err != nil {
				t.Errorf("%s: no span file: %v", w.Name, err)
			}
		}
		if w.Name == "alerts_mem" {
			// Same seed, second run: byte-identical answers.
			if again := run().digest; again != r.digest {
				t.Errorf("two runs of one seed answered differently: %s then %s", r.digest, again)
			}
		}
	}
	// alerts_durable replays alerts_mem's script: journaling must not change
	// a single answer.
	if digests["alerts_mem"] != digests["alerts_durable"] {
		t.Errorf("alerts_mem answered %s, alerts_durable %s; the same script must get the same answers", digests["alerts_mem"], digests["alerts_durable"])
	}
}
