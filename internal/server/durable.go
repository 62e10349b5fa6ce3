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

// recoverTenant opens t's journal for writing and rebuilds t from it — the
// newest snapshot, then the tail — so the tenant continues its interrupted
// cycle. buildTenant calls it before the router publishes the tenant, on a
// boot and on Promote alike.
func (s *Server) recoverTenant(t *tenantState) error {
	j, rec, err := wal.Open(s.tenantWALDir(t.id), wal.Options{
		Fsync:        s.cfg.Fsync,
		SegmentBytes: s.cfg.SegmentBytes,
		Metrics:      s.met.reg,
		Labels:       []obs.Label{obs.L("tenant", t.id)},
	})
	if err != nil {
		return fmt.Errorf("server: opening journal for tenant %q: %w", t.id, err)
	}
	if rec.Truncated {
		slog.Warn("truncated corrupt journal tail", "tenant", t.id,
			"segment", rec.TruncatedSegment, "offset", rec.TruncatedOffset)
	}
	if err := replayTenant(t.engine, rec); err != nil {
		_ = j.Close()
		return fmt.Errorf("server: recovering tenant %q: %w", t.id, err)
	}
	t.journal = j
	t.met.flagged.Set(float64(t.engine.Status().FlaggedUsers))
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
// then the tail in journal order through core.Engine.Apply, which ends in
// the writer that applied each record live.
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
		if _, err := e.Apply(r, nil); err != nil {
			return err
		}
	}
	return nil
}

// appendRecord enqueues one record on t's journal and returns the wait that
// makes it as durable as the fsync policy promises. It is the only way a
// record enters a live journal, always under the engine's budget lock (Apply,
// and the engine's decision hook), so journal order is apply order; the
// wait runs after the engine unlocks. The journal counts its own tail; the
// retention scan reads it to schedule snapshots.
func (s *Server) appendRecord(t *tenantState, r wal.Record) (wait func() error, err error) {
	if p := s.journalFault.Load(); p != nil {
		if err := p.Fire(); err != nil {
			return nil, err
		}
	}
	return t.journal.Append(r)
}

// retainTarget adapts one tenant to the retention compactor's Tenant view.
type retainTarget struct {
	s *Server
	t *tenantState
}

func (rt retainTarget) RetainID() string { return rt.t.id }

func (rt retainTarget) RetainStats() wal.RetainStats { return rt.t.journal.RetainStats() }

func (rt retainTarget) Prune() (int, int64, error) { return rt.t.journal.Prune() }

// Compact snapshots-then-prunes the tenant, waiting for the lifecycle write
// lock like every other snapshot.
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
// record, fsyncs it, and prunes superseded segments. It takes the tenant's
// lifecycle write lock, so it drains in-flight requests first: no record is
// applied between the export and the snapshot's journal position.
func (s *Server) snapshotTenant(t *tenantState) error {
	s.lockLifecycle(t, writeSide)
	defer t.lifecycle.Unlock()
	blob, err := wal.EncodeSnapshot(t.engine.ExportState())
	if err != nil {
		return err
	}
	return t.journal.Snapshot(blob)
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
	t := s.resolveTenant(w, r, id, false, noLock)
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
	t := s.resolveTenant(w, r, s.tenantID(r, r.URL.Query().Get("tenant")), false, noLock)
	if t == nil {
		return
	}
	writeJSON(w, http.StatusOK, t.engine.Summary())
}
