package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/auditgames/sag/internal/replica"
	"github.com/auditgames/sag/internal/shard"
	"github.com/auditgames/sag/internal/wal"
)

// errNotStandby is Promote's answer on a server that is not (or no longer) a
// standby; handlePromote turns it into 409.
var errNotStandby = errors.New("server: not a standby")

// discoverInterval is how often a follower polls the primary's tenant
// listing for tenants it is not replicating yet.
const discoverInterval = 2 * time.Second

// followController owns a follower's replication clients: one goroutine per
// tenant plus a discovery loop, all stopped together by Promote (or by the
// context StartFollowing was given).
type followController struct {
	s      *Server
	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	mu      sync.Mutex
	clients map[string]*replica.Client // nil while the tenant is starting
}

// StartFollowing launches replication against Config.FollowPrimary:
// locally-present tenants resume from their mirrored journals immediately
// (even while the primary is unreachable), and a discovery loop picks up new
// tenants from the primary's listing. It returns an error when the server
// was not configured as a follower. Cancel ctx to stop replicating without
// promoting (shutdown).
func (s *Server) StartFollowing(ctx context.Context) error {
	if s.cfg.FollowPrimary == "" {
		return errors.New("server: not configured with a primary to follow")
	}
	if !s.following.Load() {
		return errors.New("server: already promoted")
	}
	fctx, cancel := context.WithCancel(ctx)
	fc := &followController{
		s:       s,
		ctx:     fctx,
		cancel:  cancel,
		clients: make(map[string]*replica.Client),
	}
	if !s.follow.CompareAndSwap(nil, fc) {
		cancel()
		return errors.New("server: already following")
	}
	for _, id := range s.onDiskTenantIDs() {
		fc.ensureTenant(id)
	}
	fc.wg.Add(1)
	go func() {
		defer fc.wg.Done()
		fc.discoverLoop()
	}()
	slog.Info("following primary", "primary", s.cfg.FollowPrimary,
		"local_tenants", len(fc.snapshotClients()))
	return nil
}

// stop cancels every replication goroutine and waits for them to exit.
func (fc *followController) stop() {
	fc.cancel()
	fc.wg.Wait()
}

// discoverLoop polls the primary's tenant listing and starts replication for
// tenants this follower does not know yet.
func (fc *followController) discoverLoop() {
	fc.discoverOnce()
	t := time.NewTicker(discoverInterval)
	defer t.Stop()
	for {
		select {
		case <-fc.ctx.Done():
			return
		case <-t.C:
			fc.discoverOnce()
		}
	}
}

// tenantListing is the JSON body of GET /v1/replicate without a tenant.
type tenantListing struct {
	Tenants []string `json:"tenants"`
}

func (fc *followController) discoverOnce() {
	ctx, cancel := context.WithTimeout(fc.ctx, 5*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		fc.s.cfg.FollowPrimary+"/v1/replicate", nil)
	if err != nil {
		return
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return // primary unreachable; per-tenant clients keep retrying too
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return
	}
	var listing tenantListing
	if err := json.NewDecoder(resp.Body).Decode(&listing); err != nil {
		return
	}
	for _, id := range listing.Tenants {
		if shard.ValidID(id) {
			fc.ensureTenant(id)
		}
	}
}

// ensureTenant starts (at most once) the replication goroutine for id.
func (fc *followController) ensureTenant(id string) {
	fc.mu.Lock()
	if _, ok := fc.clients[id]; ok {
		fc.mu.Unlock()
		return
	}
	fc.clients[id] = nil // reserve before the goroutine builds the client
	fc.mu.Unlock()
	fc.wg.Add(1)
	go func() {
		defer fc.wg.Done()
		fc.runTenant(id)
	}()
}

// runTenant replicates one tenant until the controller stops. The local
// tenantState is swapped out on re-seed, so the apply callback always loads
// the current one through the holder.
func (fc *followController) runTenant(id string) {
	s := fc.s
	tn, _, err := s.router.GetOrCreate(id)
	if err != nil {
		slog.Warn("follower could not load tenant", "tenant", id, "err", err)
		fc.mu.Lock()
		delete(fc.clients, id) // discovery retries later
		fc.mu.Unlock()
		return
	}
	var holder atomic.Pointer[tenantState]
	holder.Store(tn.Data.(*tenantState))
	cl := replica.NewClient(replica.ClientConfig{
		Primary: s.cfg.FollowPrimary,
		Tenant:  id,
		Dir:     s.tenantWALDir(id),
		Apply: func(rec wal.Record, _ wal.Cursor) error {
			return s.applyReplicated(holder.Load(), rec)
		},
		Reset: func() error {
			fresh, err := s.reseedTenant(id)
			if err != nil {
				return err
			}
			holder.Store(fresh)
			return nil
		},
		Start:   holder.Load().repl,
		Metrics: s.met.reg,
	})
	fc.mu.Lock()
	fc.clients[id] = cl
	fc.mu.Unlock()
	_ = cl.Run(fc.ctx)
}

// snapshotClients returns the current client set.
func (fc *followController) snapshotClients() map[string]*replica.Client {
	fc.mu.Lock()
	defer fc.mu.Unlock()
	out := make(map[string]*replica.Client, len(fc.clients))
	for id, cl := range fc.clients {
		out[id] = cl
	}
	return out
}

// maxLag reports the worst per-tenant replication lag in records. known is
// false until every replicated tenant has heard at least one heartbeat (lag
// is then unknown, not zero) or when no tenant is replicating yet. Nil-safe:
// a follower that has not started replication reports unknown.
func (fc *followController) maxLag() (lag int64, known bool) {
	if fc == nil {
		return 0, false
	}
	clients := fc.snapshotClients()
	if len(clients) == 0 {
		return 0, false
	}
	for _, cl := range clients {
		if cl == nil {
			return 0, false // still starting
		}
		l, ok := cl.Lag()
		if !ok {
			return 0, false
		}
		if l > lag {
			lag = l
		}
	}
	return lag, true
}

// applyReplicated replays one replicated record onto the live tenant under
// the same locking the HTTP handlers use: lifecycle transitions (snapshot
// seed, cycle open/close) take the write side, everything else the read side
// — so status reads on the follower never observe a half-applied rollover.
func (s *Server) applyReplicated(t *tenantState, rec wal.Record) error {
	side := readSide
	switch rec.Kind {
	case wal.KindSnapshot, wal.KindCycleOpen, wal.KindCycleClose:
		side = writeSide
	}
	s.lockLifecycle(t, side)
	defer t.unlockLifecycle(side)
	if rec.Kind == wal.KindSnapshot {
		return s.restoreSnapshot(t, rec.Snapshot)
	}
	return s.applyRecord(t, rec)
}

// reseedTenant discards a follower tenant's local state — engine and
// mirrored journal — ahead of a snapshot re-seed, and returns the fresh
// tenant. Called by the replication client when its history has diverged
// from the primary's retained journal.
func (s *Server) reseedTenant(id string) (*tenantState, error) {
	s.router.Remove(id) // follower tenants hold no journal: nothing to close
	if err := os.RemoveAll(s.tenantWALDir(id)); err != nil {
		return nil, fmt.Errorf("server: wiping tenant %q for re-seed: %w", id, err)
	}
	tn, _, err := s.router.GetOrCreate(id)
	if err != nil {
		return nil, err
	}
	slog.Warn("local state discarded for re-seed", "tenant", id)
	return tn.Data.(*tenantState), nil
}

// Promote turns the standby into a primary the way a box boots: stop every
// replication client, unlink every standby tenant (none holds a journal),
// lift the mutation gate, and rebuild each tenant through buildTenant, which
// opens its mirrored journal for writing, restores the newest snapshot and
// replays the tail. A tenant that cannot be rebuilt stays unloaded; the first
// request for it retries. Returns the number of tenants promoted with open
// journals. Calls are serialized: one that finds the promotion done — having
// waited for it, if it was under way — gets errNotStandby and touches nothing.
func (s *Server) Promote() (int, error) {
	s.promoteMu.Lock()
	defer s.promoteMu.Unlock()
	if !s.following.Load() {
		return 0, errNotStandby
	}
	if s.closed {
		return 0, errors.New("server: closed")
	}
	if fc := s.follow.Load(); fc != nil {
		fc.stop()
	}
	ids := s.router.IDs()
	for _, id := range ids {
		s.router.Remove(id)
	}
	// From here on a tenant is built with a writable journal, by this loop or
	// by the first request for it; a standby tenant some request still holds
	// is only read.
	s.following.Store(false)
	// The unlinked tenants too: the default tenant has no mirror until the
	// primary has been reached.
	ids = append(ids, s.onDiskTenantIDs()...)
	slices.Sort(ids)
	n := 0
	var firstErr error
	for _, id := range slices.Compact(ids) {
		if _, _, err := s.router.GetOrCreate(id); err != nil {
			slog.Warn("tenant unloaded at promote", "tenant", id, "err", err)
			if firstErr == nil {
				firstErr = fmt.Errorf("server: promoting tenant %q: %w", id, err)
			}
			continue
		}
		n++
	}
	slog.Info("promoted to primary", "tenants", n)
	return n, firstErr
}

// onDiskTenantIDs lists tenants with journal state under the data dir.
func (s *Server) onDiskTenantIDs() []string {
	entries, err := os.ReadDir(filepath.Join(s.cfg.DataDir, "tenants"))
	if err != nil {
		return nil
	}
	var ids []string
	for _, e := range entries {
		id, ok := strings.CutPrefix(e.Name(), "t-")
		if ok && e.IsDir() && shard.ValidID(id) {
			ids = append(ids, id)
		}
	}
	slices.Sort(ids)
	return ids
}

// handleReplicate is GET /v1/replicate: without a tenant parameter, the JSON
// listing a follower's discovery loop polls; with one, the unbounded
// log-shipping stream (see internal/replica). Mounted without a request
// deadline: the stream is unbounded and manages its own per-write deadlines
// through the wrapper's Unwrap.
func (s *Server) handleReplicate(w http.ResponseWriter, r *http.Request) {
	if !s.durable() {
		writeJSON(w, http.StatusBadRequest,
			apiError{Error: "durability is disabled (server started without a data dir)"})
		return
	}
	if s.following.Load() {
		writeJSON(w, http.StatusServiceUnavailable,
			apiError{Error: "standby follower cannot serve replication; promote it first"})
		return
	}
	id := r.URL.Query().Get("tenant")
	if id == "" {
		writeJSON(w, http.StatusOK, tenantListing{Tenants: s.onDiskTenantIDs()})
		return
	}
	t := s.resolveTenant(w, r, id, false, noLock)
	if t == nil {
		return
	}
	replica.ServeStream(w, r, replica.StreamConfig{Journal: t.journal})
}

// handlePromote is POST /v1/admin/promote: turn this standby into the
// primary. 409 when the server is not a standby; the body reports how many
// tenants were promoted with open journals.
func (s *Server) handlePromote(w http.ResponseWriter, r *http.Request) {
	n, err := s.Promote()
	if errors.Is(err, errNotStandby) {
		writeJSON(w, http.StatusConflict, apiError{Error: "server is not a standby"})
		return
	}
	if err != nil {
		// Promotion still happened — the gate is lifted — but some tenant
		// was unloaded; surface that to the operator.
		writeJSON(w, http.StatusInternalServerError, apiError{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, struct {
		Promoted int `json:"promoted"`
	}{Promoted: n})
}
