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
	"time"

	"github.com/auditgames/sag/internal/replica"
	"github.com/auditgames/sag/internal/shard"
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
	clients map[string]*replica.Client
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

// ensureTenant starts (at most once) the replication client for id, which
// mirrors the tenant's journal into its directory and builds nothing else.
func (fc *followController) ensureTenant(id string) {
	fc.mu.Lock()
	defer fc.mu.Unlock()
	if _, ok := fc.clients[id]; ok {
		return
	}
	cl := replica.NewClient(replica.ClientConfig{
		Primary: fc.s.cfg.FollowPrimary,
		Tenant:  id,
		Dir:     fc.s.tenantWALDir(id),
		Metrics: fc.s.met.reg,
	})
	fc.clients[id] = cl
	fc.wg.Add(1)
	go func() {
		defer fc.wg.Done()
		_ = cl.Run(fc.ctx)
	}()
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

// Promote turns the standby into a primary the way a box boots: stop every
// replication client, openTenants, and only then lift the standby gate, so a
// read during promotion answers 503, never 404. A tenant that cannot be opened
// stays out: reads of it answer 404, and its next mutation retries the build.
// Returns the number of tenants opened. Calls are serialized: one that finds
// the promotion done — having waited for it, if it was under way — gets
// errNotStandby and touches nothing.
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
	n, err := s.openTenants()
	s.following.Store(false)
	slog.Info("promoted to primary", "tenants", n)
	return n, err
}

// openTenants builds every tenant on disk and the default tenant through the
// router, on a boot and on Promote alike: the one way a tenant comes off disk.
// Every tenant is tried; it returns how many were built and the first error.
func (s *Server) openTenants() (n int, firstErr error) {
	ids := append(s.onDiskTenantIDs(), DefaultTenantID)
	slices.Sort(ids)
	for _, id := range slices.Compact(ids) {
		if _, _, err := s.router.GetOrCreate(id); err != nil {
			slog.Warn("tenant not opened", "tenant", id, "err", err)
			if firstErr == nil {
				firstErr = fmt.Errorf("server: opening tenant %q: %w", id, err)
			}
			continue
		}
		n++
	}
	return n, firstErr
}

// onDiskTenantIDs lists tenants with journal state under the data dir.
func (s *Server) onDiskTenantIDs() []string {
	if !s.durable() {
		return nil
	}
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
	t := s.resolveTenant(w, r, id, false)
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
		// was not opened; surface that to the operator.
		writeJSON(w, http.StatusInternalServerError, apiError{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, struct {
		Promoted int `json:"promoted"`
	}{Promoted: n})
}
