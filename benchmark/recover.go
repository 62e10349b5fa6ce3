package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"github.com/auditgames/sag/internal/wal"
)

// capture reads every tenant's /v1/status and /v1/cycle/summary bodies.
func (r *runner) capture(base string) ([]byte, error) {
	var buf bytes.Buffer
	for _, t := range r.tenants {
		for _, path := range []string{"/v1/status", "/v1/cycle/summary"} {
			resp, err := r.admin.Get(base + path + "?tenant=" + t.id)
			if err != nil {
				return nil, err
			}
			raw, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				return nil, err
			}
			if resp.StatusCode != http.StatusOK {
				return nil, fmt.Errorf("%s for tenant %s: status %d: %.120s", path, t.id, resp.StatusCode, raw)
			}
			buf.Write(raw)
		}
	}
	return buf.Bytes(), nil
}

// recoverPhases uses the journal the other way round — not appending to it
// but restoring, shipping and sealing it:
//
//	B  capture every tenant's state, SIGKILL the server, restart it on the
//	   same data dir, time until every tenant answers /v1/status (each is
//	   restored on first use: snapshot + tail replay), and require the
//	   captures to be byte-identical; then send each tenant one more alert
//	   and check the books again, so the recovered state is the one the
//	   client was acknowledged, not merely a self-consistent one.
//	C  start a second sagserver -follow on an empty dir and time until its
//	   /v1/readyz reports lag 0.
//	D  is the caller's: SIGTERM the primary and time the drain.
//
// SIGKILL leaves the operating system's page cache intact, so B proves
// process-crash durability; cmd/sagdrill remains the torn-write oracle.
func (r *runner) recoverPhases() error {
	pre, err := r.capture(r.srv.base)
	if err != nil {
		return err
	}
	for _, c := range r.conns {
		c.close()
	}
	bin := filepath.Join(r.outDir, "bin", "sagserver")
	t0 := time.Now()
	r.srv.kill()
	if r.srv, err = startServer(bin, r.serverLog(), r.wl.serverArgs(r.dataDir)...); err != nil {
		return err
	}
	if err := r.srv.waitHTTP(r.admin, r.srv.base+"/v1/readyz", bootTimeout); err != nil {
		return err
	}
	for _, t := range r.tenants {
		resp, err := r.admin.Get(r.srv.base + "/v1/status?tenant=" + t.id)
		if err != nil {
			return err
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			r.failf("after recovery, /v1/status for tenant %s answered %d", t.id, resp.StatusCode)
		}
	}
	r.m["lifecycle.recovery_s"] = time.Since(t0).Seconds()
	post, err := r.capture(r.srv.base)
	if err != nil {
		return err
	}
	if !bytes.Equal(pre, post) {
		r.failf("state after SIGKILL and recovery differs from the state captured before it")
		_ = os.WriteFile(filepath.Join(r.outDir, r.wl.Name+".pre_kill.json"), pre, 0o644)
		_ = os.WriteFile(filepath.Join(r.outDir, r.wl.Name+".post_recovery.json"), post, 0o644)
	}
	for _, c := range r.conns {
		c.redirect(r.srv.base)
		for _, t := range c.tenants {
			c.send(t, t.script.next())
		}
		c.finishRolls()
		for _, t := range c.tenants {
			c.send(t, op{kind: opStatus})
		}
	}

	// Phase C: a standby catches up from nothing. The default tenant gets
	// one benign access first: a resident tenant whose journal holds no
	// record keeps a standby's /v1/readyz at lag 1 forever (found by this
	// harness; the server is not this PR's to change).
	resp, err := r.admin.Post(r.srv.base+"/v1/access", "application/json", bytes.NewReader([]byte(`{"employee_id":0,"patient_id":0}`)))
	if err != nil {
		return err
	}
	resp.Body.Close()
	followDir, err := os.MkdirTemp(r.outDir, "follow-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(followDir)
	t1 := time.Now()
	follower, err := startServer(bin, filepath.Join(r.outDir, r.wl.Name+".follower.log"),
		"-follow", r.srv.base, "-data-dir", followDir, "-fsync", "always")
	if err != nil {
		return err
	}
	defer follower.kill()
	if err := follower.waitHTTP(r.admin, follower.base+"/v1/readyz", bootTimeout); err != nil {
		return fmt.Errorf("standby never caught up: %v", err)
	}
	catchup := time.Since(t1).Seconds()
	r.m["replica.catchup_s"] = catchup
	resp, err = r.admin.Get(follower.base + "/v1/readyz")
	if err != nil {
		return err
	}
	var ready struct {
		Status     string `json:"status"`
		LagRecords int64  `json:"lag_records"`
	}
	err = json.NewDecoder(resp.Body).Decode(&ready)
	resp.Body.Close()
	if err != nil {
		return err
	}
	r.m["replica.lag_records_end"] = float64(ready.LagRecords)
	if ready.Status != "following" || ready.LagRecords != 0 {
		r.failf("standby readyz: status %q lag %d, want following with lag 0", ready.Status, ready.LagRecords)
	}
	if _, err := follower.term(drainTimeout); err != nil {
		r.failf("standby drain: %v", err)
	}
	records := 0
	dirs, _ := filepath.Glob(filepath.Join(followDir, "tenants", "t-*"))
	for _, dir := range dirs {
		rec, err := wal.Recover(dir)
		if err != nil {
			return err
		}
		records += rec.Records
	}
	r.m["replica.records_per_s"] = float64(records) / catchup
	if len(dirs) < r.wl.Tenants {
		r.failf("standby mirrored %d tenants, want at least %d", len(dirs), r.wl.Tenants)
	}
	return nil
}
