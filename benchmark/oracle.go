package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"time"

	"github.com/auditgames/sag/internal/server"
	"github.com/auditgames/sag/internal/wal"
)

// tenantHistory is what one tenant sent and how it was answered, cut to the prefix
// the in-process replays cover.
type tenantHistory struct {
	id     string
	sent   []op
	hashes []uint64
}

func historiesOf(tenants []*tenantRun, prefix int) []tenantHistory {
	out := make([]tenantHistory, len(tenants))
	for i, t := range tenants {
		n := min(prefix, len(t.sent))
		out[i] = tenantHistory{id: t.id, sent: t.sent[:n], hashes: t.hashes[:n]}
	}
	return out
}

// replayOrder visits every (tenant, request index) of the histories in the
// order one connection owning all tenants would send them.
func replayOrder(hs []tenantHistory, visit func(h *tenantHistory, i int) error) error {
	for i := 0; ; i++ {
		any := false
		for t := range hs {
			if i < len(hs[t].sent) {
				any = true
				if err := visit(&hs[t], i); err != nil {
					return err
				}
			}
		}
		if !any {
			return nil
		}
	}
}

// replayer is one in-process server the recorded histories are replayed
// through. serve replays request i of tenant t and checks the answer against
// the child's; close releases the server and its data dir.
type replayer interface {
	serve(t *tenantHistory, i int) error
	close()
}

// replayAll sends every recorded request through every replayer, one
// request at a time through each in turn. Interleaving at the request keeps
// the replayers' timings comparable: this box's speed drifts within
// seconds, and three passes run one after another would each have met a
// different box.
func replayAll(hs []tenantHistory, targets ...replayer) error {
	return replayOrder(hs, func(t *tenantHistory, i int) error {
		for _, target := range targets {
			if err := target.serve(t, i); err != nil {
				return err
			}
		}
		return nil
	})
}

// oracle is the real server.Handler() in process — no socket, same world,
// seed and clock. Every answer must hash exactly as the child process
// answered it, so the child's responses are checked value for value (warn
// draws, budget chain, audit plans), not only for shape.
type oracle struct {
	srv      *server.Server
	handler  http.Handler
	dataDir  string
	accessUs []float64 // per POST /v1/access, ServeHTTP wall time
	ops      int
}

func newOracle(wd *world, wl *workload, outDir string, fsync wal.FsyncPolicy) (*oracle, error) {
	o := &oracle{}
	if wl.Durable {
		dir, err := os.MkdirTemp(outDir, "oracle-*")
		if err != nil {
			return nil, err
		}
		o.dataDir = dir
	}
	cfg, err := wd.serverConfig(wl, o.dataDir, fsync)
	if err == nil {
		o.srv, err = server.New(cfg)
	}
	if err != nil {
		o.close()
		return nil, err
	}
	o.handler = o.srv.Handler()
	return o, nil
}

func (o *oracle) close() {
	if o.srv != nil {
		_ = o.srv.Close()
	}
	if o.dataDir != "" {
		os.RemoveAll(o.dataDir)
	}
}

func (o *oracle) serve(t *tenantHistory, i int) error {
	sent := t.sent[i]
	method, path, body := requestFor(sent)
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req := httptest.NewRequest(method, path, rd)
	req.Header.Set(tenantHeader, t.id)
	rec := httptest.NewRecorder()
	t0 := time.Now()
	o.handler.ServeHTTP(rec, req)
	if sent.kind == opAccess {
		o.accessUs = append(o.accessUs, float64(time.Since(t0))/float64(time.Microsecond))
	}
	o.ops++
	if got := responseHash(rec.Code, rec.Body.Bytes()); got != t.hashes[i] {
		return fmt.Errorf("tenant %s request %d (%s): the child's answer differs from the in-process handler's (%d %.160s)",
			t.id, i, sent.kind, rec.Code, bytes.TrimSpace(rec.Body.Bytes()))
	}
	return nil
}
