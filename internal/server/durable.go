package server

import (
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"path/filepath"
	"sort"

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

// tenantSnapshot is the owner-encoded payload of a WAL snapshot record: the
// engine's cycle state plus the HTTP layer's per-tenant state. The
// estimator's memory is not in it: restore rebuilds it by asking the
// estimator again. JSON is used deliberately — Go's encoder round-trips
// float64 exactly — and the blob never crosses a version boundary
// unvalidated (decode errors fail recovery loudly rather than restoring a
// half-right tenant).
type tenantSnapshot struct {
	Engine   core.EngineState `json:"engine"`
	Accesses int64            `json:"accesses"`
	Alerts   int64            `json:"alerts"`
	Warned   int64            `json:"warned"`
	Quits    int64            `json:"quits"`
	Flagged  []int            `json:"flagged,omitempty"`
	Closed   bool             `json:"closed"`
}

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
	if err := s.replayTenant(t, rec); err != nil {
		_ = j.Close()
		return fmt.Errorf("server: recovering tenant %q: %w", t.id, err)
	}
	t.journal = j
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

// replayTenant restores t from a journal recovery: first the snapshot (if
// any), then the tail records in journal order. Exactly one record was
// written per acknowledged request, so replay applies each record's full
// counter delta and never double-applies a half-recorded request.
func (s *Server) replayTenant(t *tenantState, rec *wal.Recovery) error {
	if rec.Snapshot != nil {
		if err := s.restoreSnapshot(t, rec.Snapshot); err != nil {
			return err
		}
	}
	for _, r := range rec.Tail {
		if err := s.applyRecord(t, r); err != nil {
			return err
		}
	}
	return nil
}

// restoreSnapshot decodes one snapshot blob onto t. The engine must be
// pristine (core.RestoreState enforces it): recovery calls this before the
// tenant serves.
func (s *Server) restoreSnapshot(t *tenantState, blob []byte) error {
	var snap tenantSnapshot
	if err := json.Unmarshal(blob, &snap); err != nil {
		return fmt.Errorf("decoding snapshot: %w", err)
	}
	if err := t.engine.RestoreState(snap.Engine); err != nil {
		return err
	}
	t.accesses.Store(snap.Accesses)
	t.alerts.Store(snap.Alerts)
	t.warned.Store(snap.Warned)
	t.quits.Store(snap.Quits)
	t.flaggedMu.Lock()
	for _, emp := range snap.Flagged {
		t.flagged[emp] = true
	}
	t.met.flagged.Set(float64(len(t.flagged)))
	t.flaggedMu.Unlock()
	t.closed = snap.Closed
	return nil
}

// applyRecord applies one non-snapshot journal record to t. It is the tenant
// state machine: recovery (a boot or a promotion) and the live pipeline
// (commit, once the record is durable) both change per-cycle state here and
// nowhere else, so the two cannot drift apart.
func (s *Server) applyRecord(t *tenantState, r wal.Record) error {
	switch r.Kind {
	case wal.KindDecision:
		// A decision record is one full acknowledged /v1/access request
		// of a gamed alert: one access, one alert, and the engine's
		// committed decision (recorded signal, recorded budget chain).
		if err := t.engine.ApplyDecision(r.Decision); err != nil {
			return err
		}
		t.countAccess(true, r.Decision.Warned)
	case wal.KindMeta:
		// One acknowledged request that bypassed the engine.
		t.countAccess(r.Meta.Alerted, r.Meta.Warned)
	case wal.KindQuit:
		t.flaggedMu.Lock()
		first := !t.flagged[r.Employee]
		if first {
			t.flagged[r.Employee] = true
			t.met.flagged.Set(float64(len(t.flagged)))
		}
		t.flaggedMu.Unlock()
		if first {
			t.quits.Add(1)
		}
	case wal.KindCycleOpen:
		if err := t.engine.NewCycle(r.Budget); err != nil {
			return err
		}
		// Flagged users deliberately survive the rollover: a quit reveals
		// the requester for good (paper §4).
		t.closed = false
		t.accesses.Store(0)
		t.alerts.Store(0)
		t.warned.Store(0)
		t.quits.Store(0)
	case wal.KindCycleClose:
		t.closed = true
	default:
		return fmt.Errorf("unknown journal record kind %v", r.Kind)
	}
	return nil
}

// countAccess applies one acknowledged access's per-cycle counter delta:
// applyRecord for a decision or meta record, and the live alert path once the
// engine has committed (and journaled) the decision.
func (t *tenantState) countAccess(alerted, warned bool) {
	t.accesses.Add(1)
	if alerted {
		t.alerts.Add(1)
	}
	if warned {
		t.warned.Add(1)
	}
}

// appendRecord enqueues one record on t's journal and returns the wait that
// makes it as durable as the fsync policy promises. It is the only way a
// record enters a live journal: commit (which waits at once) and the engine's
// decision hook (under its budget lock, so journal order is commit order; the
// engine waits after unlocking). The journal counts its own tail; the
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

// exportTenant encodes t's full state. The caller holds t.lifecycle
// exclusively, so no decision is mid-commit and the engine export, the
// counters, and the journal position are mutually consistent.
func (s *Server) exportTenant(t *tenantState) ([]byte, error) {
	snap := tenantSnapshot{
		Engine:   t.engine.ExportState(),
		Accesses: t.accesses.Load(),
		Alerts:   t.alerts.Load(),
		Warned:   t.warned.Load(),
		Quits:    t.quits.Load(),
		Closed:   t.closed,
	}
	t.flaggedMu.RLock()
	for emp := range t.flagged {
		snap.Flagged = append(snap.Flagged, emp)
	}
	t.flaggedMu.RUnlock()
	sort.Ints(snap.Flagged)
	return json.Marshal(snap)
}

// snapshotTenant writes one tenant's full state as a journal snapshot
// record, fsyncs it, and prunes superseded segments. It takes the tenant's
// lifecycle write lock, so it drains in-flight decisions first — the
// snapshot can never miss a decision that was journaled before it.
func (s *Server) snapshotTenant(t *tenantState) error {
	s.lockLifecycle(t, writeSide)
	defer t.lifecycle.Unlock()
	blob, err := s.exportTenant(t)
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
	t := s.resolveTenant(w, r, s.tenantID(r, r.URL.Query().Get("tenant")), false, readSide)
	if t == nil {
		return
	}
	defer t.lifecycle.RUnlock()
	writeJSON(w, http.StatusOK, t.engine.Summary())
}
