package server

import (
	"fmt"
	"log/slog"
	"net/http"
	"path/filepath"

	"github.com/auditgames/sag/internal/core"
	"github.com/auditgames/sag/internal/obs"
	"github.com/auditgames/sag/internal/retain"
	"github.com/auditgames/sag/internal/shard"
	"github.com/auditgames/sag/internal/wal"
)

// MetricRecoveryReplayed gauges, per tenant, how many journal records boot
// recovery replayed on top of the restored snapshot.
const MetricRecoveryReplayed = "sag_recovery_replayed_records"

// DefaultSnapshotEvery is the automatic snapshot cadence (journal records
// between snapshots) when Config.SnapshotEvery is zero.
const DefaultSnapshotEvery = 4096

// durable reports whether the server was configured with a data directory.
func (s *Server) durable() bool { return s.cfg.DataDir != "" }

// tenantWALDir maps a tenant ID to its journal directory. The "t-" prefix
// is load-bearing: shard.ValidID admits IDs like ".." and "." (dots are
// legal ID characters), so raw IDs must never become path components.
func (s *Server) tenantWALDir(id string) string {
	return filepath.Join(s.cfg.DataDir, "tenants", "t-"+id)
}

// recoverTenant rebuilds t from its journal — the newest snapshot, then the
// tail — so the tenant continues its interrupted cycle, and only then cuts
// the journal and opens it for writing on a fresh segment: a tenant refused
// at replay leaves its dir byte-identical. buildTenant calls it before the
// router publishes the tenant, on a boot and on Promote alike.
func (s *Server) recoverTenant(t *tenantState) error {
	dir := s.tenantWALDir(t.id)
	rec, err := wal.Recover(dir)
	if err != nil {
		return fmt.Errorf("server: opening journal for tenant %q: %w", t.id, err)
	}
	if err := replayTenant(t.engine, rec); err != nil {
		return fmt.Errorf("server: recovering tenant %q: %w", t.id, err)
	}
	j, err := wal.OpenRecovered(dir, rec, wal.Options{
		Fsync:        s.cfg.Fsync,
		SegmentBytes: s.cfg.SegmentBytes,
		Metrics:      s.met.reg,
		Labels:       []obs.Label{obs.L("tenant", t.id)},
	})
	if err != nil {
		return fmt.Errorf("server: opening journal for tenant %q: %w", t.id, err)
	}
	t.journal = j
	if rec.Truncated {
		slog.Warn("truncated corrupt journal tail", "tenant", t.id,
			"segment", rec.TruncatedSegment, "offset", rec.TruncatedOffset)
	}
	replayed := len(rec.Tail)
	s.met.reg.Gauge(MetricRecoveryReplayed,
		"Journal records replayed on top of the restored snapshot at boot.",
		obs.L("tenant", t.id)).Set(float64(replayed))
	if rec.Snapshot != nil || replayed > 0 {
		slog.Info("recovered tenant", "tenant", t.id, "snapshot_bytes", len(rec.Snapshot),
			"replayed_records", replayed, "segments_scanned", rec.Segments)
	}
	return nil
}

// replayTenant restores e from a journal recovery: the snapshot (if any),
// then the tail in journal order through core.Engine.Replay, which ends in
// the writer that applied each record live and counts none of them.
func replayTenant(e *core.Engine, rec *wal.Recovery) error {
	if rec.Snapshot != nil {
		st, err := wal.DecodeSnapshot(rec.Snapshot)
		if err == nil {
			err = e.RestoreState(st)
		}
		if err != nil {
			return err
		}
	}
	for _, r := range rec.Tail {
		if err := e.Replay(r); err != nil {
			return err
		}
	}
	return nil
}

// retainTarget adapts one tenant to the retention compactor's Tenant view.
type retainTarget struct {
	s *Server
	t *tenantState
}

func (rt retainTarget) RetainID() string { return rt.t.id }

func (rt retainTarget) RetainStats() wal.RetainStats { return rt.t.journal.RetainStats() }

func (rt retainTarget) Prune() (int, int64, error) { return rt.t.journal.Prune() }

// Compact snapshots-then-prunes the tenant.
func (rt retainTarget) Compact() error { return rt.s.snapshotTenant(rt.t) }

// listRetainTenants is the compactor's Config.List: the resident tenants as
// retention targets.
func (s *Server) listRetainTenants() []retain.Tenant {
	out := make([]retain.Tenant, 0, s.router.Len())
	s.router.Range(func(tn *shard.Tenant) bool {
		out = append(out, retainTarget{s: s, t: tn.Data.(*tenantState)})
		return true
	})
	return out
}

// snapshotTenant writes one tenant's full state as a journal snapshot
// record, fsyncs it, and prunes superseded segments. Only enqueueSnapshot
// holds up the tenant's requests; the fsync and the prune run after it.
func (s *Server) snapshotTenant(t *tenantState) error {
	wait, err := s.enqueueSnapshot(t)
	if err == nil {
		err = wait()
	}
	return err
}

// enqueueSnapshot exports, encodes and enqueues t's snapshot in one hold of
// its engine's budget lock, so no record is applied between the export and
// the snapshot's journal position, and returns the journal's wait.
func (s *Server) enqueueSnapshot(t *tenantState) (wait func() error, err error) {
	return t.engine.Snapshot(func(st core.EngineState) (func() error, error) {
		blob, err := wal.EncodeSnapshot(st)
		if err != nil {
			return nil, err
		}
		return t.journal.AppendSnapshot(blob)
	})
}

// snapshotResident snapshots every resident tenant and reports how many
// succeeded and the first error. Every tenant is attempted.
func (s *Server) snapshotResident() (n int, first error) {
	s.router.Range(func(tn *shard.Tenant) bool {
		t := tn.Data.(*tenantState)
		if err := s.snapshotTenant(t); err != nil {
			slog.Error("snapshot failed", "tenant", t.id, "err", err)
			if first == nil {
				first = err
			}
			return true
		}
		n++
		return true
	})
	return n, first
}

// Close seals every tenant journal (snapshotting each first). Call it after
// the HTTP listener has stopped; it is what makes SIGTERM indistinguishable
// from a clean restart. A promotion still under way (its request outlived
// the shutdown grace) is waited for, so the tenants it rebuilt are sealed
// too, and one that arrives later is refused.
func (s *Server) Close() error {
	s.promoteMu.Lock()
	defer s.promoteMu.Unlock()
	s.closed = true
	if !s.durable() {
		return nil
	}
	// Stop the retention scan before sealing journals so no scan races the
	// close-time snapshots.
	s.retain.Stop()
	_, err := s.snapshotResident()
	s.router.Range(func(tn *shard.Tenant) bool {
		if cerr := tn.Data.(*tenantState).journal.Close(); cerr != nil && err == nil {
			err = cerr
		}
		return true
	})
	return err
}

// SnapshotRequest is the body of POST /v1/admin/snapshot. An empty tenant
// snapshots every resident tenant.
type SnapshotRequest struct {
	Tenant string `json:"tenant,omitempty"`
}

// SnapshotResponse reports what /v1/admin/snapshot persisted.
type SnapshotResponse struct {
	Tenants int `json:"tenants"`
}

// handleSnapshot is POST /v1/admin/snapshot: force a snapshot of one tenant
// (or all, when none is named) so an operator can bound replay length
// before a planned restart. 400 when the server runs without a data dir.
func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	if s.rejectIfFollowing(w) {
		return
	}
	if !s.durable() {
		writeJSON(w, http.StatusBadRequest,
			apiError{Error: "durability is disabled (server started without a data dir)"})
		return
	}
	// The body is optional (operators curl this with none); malformed JSON
	// is tolerated but an oversized body is a hard 413.
	var req SnapshotRequest
	if !s.decodeJSON(w, r, &req, true) {
		return
	}
	id := req.Tenant
	if h := r.Header.Get(TenantHeader); h != "" {
		id = h
	}
	if id == "" {
		n, err := s.snapshotResident()
		if err != nil {
			writeJSON(w, http.StatusInternalServerError, apiError{Error: err.Error()})
			return
		}
		writeJSON(w, http.StatusOK, SnapshotResponse{Tenants: n})
		return
	}
	t := s.resolveTenant(w, r, id, false)
	if t == nil {
		return
	}
	if err := s.snapshotTenant(t); err != nil {
		writeJSON(w, http.StatusInternalServerError, apiError{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, SnapshotResponse{Tenants: 1})
}

// handleCycleSummary is GET /v1/cycle/summary: the tenant's aggregate view
// of the current cycle — the same summary the drain path logs — so restart
// drills can compare recovered state against a golden run byte for byte.
func (s *Server) handleCycleSummary(w http.ResponseWriter, r *http.Request) {
	t := s.resolveTenant(w, r, s.tenantID(r, r.URL.Query().Get("tenant")), false)
	if t == nil {
		return
	}
	writeJSON(w, http.StatusOK, t.engine.Summary())
}
