package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"time"

	"github.com/auditgames/sag/internal/admit"
	"github.com/auditgames/sag/internal/core"
	"github.com/auditgames/sag/internal/dist"
	"github.com/auditgames/sag/internal/emr"
	"github.com/auditgames/sag/internal/game"
	"github.com/auditgames/sag/internal/history"
	"github.com/auditgames/sag/internal/obs"
	"github.com/auditgames/sag/internal/server"
	"github.com/auditgames/sag/internal/shard"
	"github.com/auditgames/sag/internal/wal"
)

// span is one timed stretch of one request inside one layer.
type span struct {
	Name   string `json:"name"`
	Req    int    `json:"req"`    // request identifier shared by a request's spans
	Parent int    `json:"parent"` // index of the causing span, -1 for a root
	Start  int64  `json:"start"`  // ns since the trace began
	End    int64  `json:"end"`
}

// tracer keeps spans and boundary counts in memory; the replay is single
// threaded, so the open-span stack gives each span its parent.
type tracer struct {
	on     bool
	t0     time.Time
	spans  []span
	stack  []int
	req    int
	counts map[string]int64
}

func newTracer(on bool) *tracer {
	return &tracer{on: on, t0: time.Now(), counts: make(map[string]int64)}
}

func (tr *tracer) begin(name string) int {
	if !tr.on {
		return -1
	}
	parent := -1
	if n := len(tr.stack); n > 0 {
		parent = tr.stack[n-1]
	}
	tr.spans = append(tr.spans, span{Name: name, Req: tr.req, Parent: parent, Start: int64(time.Since(tr.t0))})
	id := len(tr.spans) - 1
	tr.stack = append(tr.stack, id)
	return id
}

func (tr *tracer) end(id int) {
	if id < 0 {
		return
	}
	tr.spans[id].End = int64(time.Since(tr.t0))
	tr.stack = tr.stack[:len(tr.stack)-1]
}

func (tr *tracer) count(name string, n int64) {
	if tr.on {
		tr.counts[name] += n
	}
}

// layerTime is one span name's aggregate over a trace.
type layerTime struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalUs float64 `json:"total_us"`
	SelfUs  float64 `json:"self_us"` // total minus the part its child spans cover
}

// summarize reduces the spans to per-layer totals and self times and
// returns the share of root-span time that layer spans explain.
func (tr *tracer) summarize() (layers []layerTime, explained float64) {
	childNs := make([]int64, len(tr.spans))
	for _, s := range tr.spans {
		if s.Parent >= 0 {
			childNs[s.Parent] += s.End - s.Start
		}
	}
	byName := make(map[string]*layerTime)
	var rootNs, rootSelfNs int64
	for i, s := range tr.spans {
		lt := byName[s.Name]
		if lt == nil {
			lt = &layerTime{Name: s.Name}
			byName[s.Name] = lt
		}
		d := s.End - s.Start
		lt.Count++
		lt.TotalUs += float64(d) / 1e3
		lt.SelfUs += float64(d-childNs[i]) / 1e3
		if s.Parent < 0 {
			rootNs += d
			rootSelfNs += d - childNs[i]
		}
	}
	for _, lt := range byName {
		layers = append(layers, *lt)
	}
	sort.Slice(layers, func(i, j int) bool { return layers[i].SelfUs > layers[j].SelfUs })
	if rootNs > 0 {
		explained = 1 - float64(rootSelfNs)/float64(rootNs)
	}
	return layers, explained
}

// shadowTenant is the shadow path's per-tenant serving state — what
// internal/server keeps in its unexported tenantState.
type shadowTenant struct {
	engine  *core.Engine
	journal *wal.Journal
	flagged map[int]bool
	closed  bool
}

// shadow serves the access path composed from the layers' public functions,
// in the order handleAccess calls them, with a span around each call. It
// exists to attribute a request's time to layers from outside the program;
// its answers must hash like the real handler's or it has drifted.
type shadow struct {
	wd      *world
	wl      *workload
	tr      *tracer
	reg     *obs.Registry
	router  *shard.Router
	admit   *admit.Controller
	dataDir string
	fsync   wal.FsyncPolicy

	theoremViolations []string
}

func newShadow(wd *world, wl *workload, tr *tracer, dataDir string, fsync wal.FsyncPolicy) (*shadow, error) {
	sh := &shadow{wd: wd, wl: wl, tr: tr, reg: obs.NewRegistry(), dataDir: dataDir, fsync: fsync}
	est, err := wd.rollback()
	if err != nil {
		return nil, err
	}
	if wl.MaxInflight > 0 {
		sh.admit, err = admit.New(admit.Config{
			MaxInflight: wl.MaxInflight,
			QueueDepth:  wl.QueueDepth,
			MaxTenants:  4 * shard.DefaultMaxTenants,
			Metrics:     sh.reg,
		})
		if err != nil {
			return nil, err
		}
	}
	sh.router, err = shard.NewRouter(shard.Config{
		Metrics: sh.reg,
		New: func(id string) (*core.Engine, any, error) {
			return sh.buildTenant(id, est)
		},
	})
	return sh, err
}

// spanEstimator wraps the shared knowledge-rollback estimator in a span. It
// forwards Reset, which the engine calls on every new cycle.
type spanEstimator struct {
	est *history.Rollback
	tr  *tracer
}

func (s spanEstimator) FutureRates(at time.Duration) ([]float64, error) {
	sp := s.tr.begin("history.estimate")
	defer s.tr.end(sp)
	return s.est.FutureRates(at)
}

func (s spanEstimator) Reset() { s.est.Reset() }

// buildTenant mirrors server.buildTenant: a per-tenant engine seeded from
// the tenant ID, journaling every committed decision when durable, with the
// estimator, the SSE solve and the journal append each wrapped in a span.
func (sh *shadow) buildTenant(id string, est *history.Rollback) (*core.Engine, any, error) {
	t := &shadowTenant{flagged: make(map[int]bool)}
	tr := sh.tr
	cfg := core.Config{
		Instance:     sh.wd.inst,
		Budget:       cycleBudget,
		Estimator:    spanEstimator{est: est, tr: tr},
		Policy:       core.PolicyOSSP,
		Rand:         rand.New(rand.NewSource(serverSeed ^ int64(shard.Seed(id)))),
		Metrics:      sh.reg,
		MetricLabels: []obs.Label{obs.L("tenant", id)},
		Fallback:     true,
		SSESolve: func(ctx context.Context, inst *game.Instance, budget float64, futures []dist.Poisson) (*game.Result, error) {
			sp := tr.begin("game.sse")
			defer tr.end(sp)
			res, err := game.SolveOnlineSSECtx(ctx, inst, budget, futures)
			if err == nil {
				tr.count("lp.solves", int64(res.Stats.LPSolves))
				tr.count("lp.simplex_iterations", int64(res.Stats.Simplex.Iterations()))
			}
			return res, err
		},
	}
	if sh.wl.Durable {
		j, _, err := wal.Open(filepath.Join(sh.dataDir, "tenants", "t-"+id), wal.Options{
			Fsync:        sh.fsync,
			SegmentBytes: sh.wl.SegmentBytes,
			Metrics:      sh.reg,
			Labels:       []obs.Label{obs.L("tenant", id)},
		})
		if err != nil {
			return nil, nil, err
		}
		t.journal = j
		cfg.Journal = func(rec core.DecisionRecord) (func() error, error) {
			sp := tr.begin("wal.append")
			wait, err := j.Append(wal.Record{Kind: wal.KindDecision, Decision: rec})
			if err != nil || wait == nil {
				tr.end(sp)
				return nil, err
			}
			return func() error {
				defer tr.end(sp)
				return wait()
			}, nil
		}
	}
	engine, err := core.NewEngine(cfg)
	if err != nil {
		return nil, nil, err
	}
	t.engine = engine
	return engine, t, nil
}

func (sh *shadow) close() {
	sh.router.Range(func(tn *shard.Tenant) bool {
		if j := tn.Data.(*shadowTenant).journal; j != nil {
			_ = j.Close()
		}
		return true
	})
}

// journal appends one non-decision record and waits for it, as the server's
// journalRecord does.
func (sh *shadow) journal(t *shadowTenant, rec wal.Record) error {
	if t.journal == nil {
		return nil
	}
	sp := sh.tr.begin("wal.append")
	defer sh.tr.end(sp)
	wait, err := t.journal.Append(rec)
	if err == nil && wait != nil {
		err = wait()
	}
	return err
}

func (sh *shadow) tenant(id string) (*shadowTenant, error) {
	tn, _, err := sh.router.GetOrCreate(id)
	if err != nil {
		return nil, err
	}
	return tn.Data.(*shadowTenant), nil
}

// access is handleAccess, recomposed. It returns the response body.
func (sh *shadow) access(ctx context.Context, tenantID string, body []byte) ([]byte, error) {
	tr := sh.tr
	tr.req++
	root := tr.begin("access")
	defer tr.end(root)

	sp := tr.begin("server.json_decode")
	var req server.AccessRequest
	err := json.Unmarshal(body, &req)
	tr.end(sp)
	if err != nil {
		return nil, err
	}

	if sh.admit != nil {
		sp = tr.begin("admit.admit")
		release, err := sh.admit.Admit(ctx, tenantID)
		tr.end(sp)
		if err != nil {
			return nil, err
		}
		defer release()
	}

	sp = tr.begin("shard.resolve")
	t, err := sh.tenant(tenantID)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	if t.closed {
		return nil, errors.New("access on a closed cycle")
	}

	sp = tr.begin("alerts.evaluate")
	alert, fired, err := sh.wd.detector.Evaluate(emr.AccessEvent{Time: fixedClock, EmployeeID: req.EmployeeID, PatientID: req.PatientID})
	tr.end(sp)
	if err != nil {
		return nil, err
	}

	resp := server.AccessResponse{RemainingBudget: t.engine.RemainingBudget()}
	switch idx, gamed := sh.wd.typeIdx[alert.Type]; {
	case !fired:
		err = sh.journal(t, wal.Record{Kind: wal.KindMeta})
	case t.flagged[req.EmployeeID]:
		resp.Alert, resp.TypeID, resp.Rules = true, alert.Type, alert.Rules.String()
		resp.Warn, resp.Flagged = true, true
		err = sh.journal(t, wal.Record{Kind: wal.KindMeta, Meta: wal.Meta{Alerted: true, Warned: true}})
	case !gamed:
		resp.Alert, resp.TypeID, resp.Rules = true, alert.Type, alert.Rules.String()
		err = sh.journal(t, wal.Record{Kind: wal.KindMeta, Meta: wal.Meta{Alerted: true}})
	default:
		resp.Alert, resp.TypeID, resp.Rules = true, alert.Type, alert.Rules.String()
		sp = tr.begin("core.process")
		var d *core.Decision
		d, err = t.engine.ProcessContext(ctx, core.Alert{Type: idx, Time: fixedClock})
		tr.end(sp)
		if err == nil {
			resp.Warn = d.Warned
			resp.RemainingBudget = d.BudgetAfter
			if d.Fallback.Degraded() {
				resp.Fallback = d.Fallback.String()
			}
			sh.checkTheorems(d)
		}
	}
	if err != nil {
		return nil, err
	}

	sp = tr.begin("server.json_encode")
	out, err := json.Marshal(resp)
	out = append(out, '\n') // json.Encoder, which the server writes with, ends with a newline
	tr.end(sp)
	return out, err
}

// checkTheorems holds every solved decision to the paper's Theorems 1 and 2:
// the OSSP's marginal audit probability equals the SSE coverage θ, and
// signaling never does worse than not signaling.
func (sh *shadow) checkTheorems(d *core.Decision) {
	const tol = 1e-9
	if d.Vacuous || d.Fallback.Degraded() {
		return
	}
	if math.Abs(d.Scheme.MarginalAudit()-d.Theta) > tol {
		sh.violation("Theorem 1: marginal audit %v != theta %v", d.Scheme.MarginalAudit(), d.Theta)
	}
	if d.OSSPUtility < d.SSEUtility-tol {
		sh.violation("Theorem 2: OSSP utility %v < SSE utility %v", d.OSSPUtility, d.SSEUtility)
	}
}

func (sh *shadow) violation(format string, args ...any) {
	if len(sh.theoremViolations) < 4 {
		sh.theoremViolations = append(sh.theoremViolations, fmt.Sprintf(format, args...))
	}
}

// apply keeps the tenant's state in step for the requests that are not
// accesses; only accesses are spanned and compared.
func (sh *shadow) apply(tenantID string, o op) error {
	t, err := sh.tenant(tenantID)
	if err != nil {
		return err
	}
	switch o.kind {
	case opQuit:
		if !t.flagged[o.employee] {
			t.flagged[o.employee] = true
			return sh.journal(t, wal.Record{Kind: wal.KindQuit, Employee: o.employee})
		}
	case opClose:
		t.closed = true
		return sh.journal(t, wal.Record{Kind: wal.KindCycleClose})
	case opNew:
		if err := sh.journal(t, wal.Record{Kind: wal.KindCycleOpen, Budget: cycleBudget}); err != nil {
			return err
		}
		t.closed = false
		return t.engine.NewCycle(cycleBudget)
	case opSnapshot:
		if t.journal != nil {
			blob, err := json.Marshal(t.engine.ExportState())
			if err != nil {
				return err
			}
			return t.journal.Snapshot(blob)
		}
	}
	return nil
}

// shadowReplay is a shadow path being replayed through: it requires every
// access to hash as the child answered it and keeps the per-access times.
type shadowReplay struct {
	sh       *shadow
	tr       *tracer
	accessUs []float64
}

func newShadowReplay(wd *world, wl *workload, outDir string, fsync wal.FsyncPolicy, traced bool) (*shadowReplay, error) {
	r := &shadowReplay{tr: newTracer(traced)}
	dataDir := ""
	if wl.Durable {
		dir, err := os.MkdirTemp(outDir, "shadow-*")
		if err != nil {
			return nil, err
		}
		dataDir = dir
	}
	sh, err := newShadow(wd, wl, r.tr, dataDir, fsync)
	if err != nil {
		os.RemoveAll(dataDir)
		return nil, err
	}
	r.sh = sh
	return r, nil
}

func (r *shadowReplay) close() {
	r.sh.close()
	if r.sh.dataDir != "" {
		os.RemoveAll(r.sh.dataDir)
	}
}

func (r *shadowReplay) serve(t *tenantHistory, i int) error {
	o := t.sent[i]
	if o.kind != opAccess {
		return r.sh.apply(t.id, o)
	}
	_, _, body := requestFor(o)
	t0 := time.Now()
	out, err := r.sh.access(context.Background(), t.id, body)
	r.accessUs = append(r.accessUs, float64(time.Since(t0))/float64(time.Microsecond))
	if err != nil {
		return fmt.Errorf("shadow path, tenant %s request %d: %v", t.id, i, err)
	}
	if responseHash(http.StatusOK, out) != t.hashes[i] {
		return fmt.Errorf("shadow path, tenant %s request %d: answer %.160s differs from the child's", t.id, i, out)
	}
	return nil
}

// traceFile is what a traced run leaves in out/trace_<workload>.json.
type traceFile struct {
	Workload  string           `json:"workload"`
	Seed      int64            `json:"seed"`
	Requests  int              `json:"requests"`
	Explained float64          `json:"explained_ratio"`
	Layers    []layerTime      `json:"layers"`
	Counts    map[string]int64 `json:"counts"`
	Spans     []span           `json:"spans,omitempty"`
}
