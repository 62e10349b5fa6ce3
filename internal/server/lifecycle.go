package server

import (
	"context"
	"errors"
	"log"
	"net"
	"net/http"
	"time"
)

// MetricHTTPPanicsTotal counts handler panics contained by the route
// wrapper. A nonzero value means a bug was survived, not absent.
const MetricHTTPPanicsTotal = "sag_http_panics_total"

// RunConfig configures the hardened serving lifecycle (see Run).
type RunConfig struct {
	// Addr is the main listen address (":8080"). Required.
	Addr string
	// Handler serves the main listener; typically Server.Handler().
	Handler http.Handler
	// DebugAddr, when non-empty, starts a second listener (pprof, /metrics)
	// sharing the same lifecycle: it drains and stops with the main one
	// instead of dying with the process.
	DebugAddr string
	// DebugHandler serves the debug listener; required when DebugAddr is set.
	DebugHandler http.Handler
	// ShutdownGrace bounds draining on shutdown: in-flight requests get this
	// long to finish before the listeners are torn down. Zero means 10s.
	ShutdownGrace time.Duration
	// OnDrainStart runs when shutdown begins, before the listeners drain —
	// the place to flip readiness (Server.SetReady(false)).
	OnDrainStart func()
	// OnShutdown runs after both listeners have stopped — the place to log
	// the final cycle summary.
	OnShutdown func()
	// Logf receives lifecycle log lines; defaults to log.Printf.
	Logf func(format string, args ...any)
	// OnListen, when non-nil, is called with each bound listener address
	// (main first, then debug). Tests use it to learn ":0" ports.
	OnListen func(addr net.Addr)
}

func (c *RunConfig) fillDefaults() {
	if c.ShutdownGrace <= 0 {
		c.ShutdownGrace = 10 * time.Second
	}
	if c.Logf == nil {
		c.Logf = log.Printf
	}
}

// Both http.Servers are hardened against slow-loris and stuck peers with
// these. No binary, flag or test ever set other values, so they are not
// configuration.
const (
	readHeaderTimeout = 5 * time.Second
	readTimeout       = 15 * time.Second
	writeTimeout      = 30 * time.Second
	idleTimeout       = 120 * time.Second
)

func newServer(h http.Handler) *http.Server {
	return &http.Server{
		Handler:           h,
		ReadHeaderTimeout: readHeaderTimeout,
		ReadTimeout:       readTimeout,
		WriteTimeout:      writeTimeout,
		IdleTimeout:       idleTimeout,
	}
}

// Run serves cfg.Handler on cfg.Addr (and cfg.DebugHandler on cfg.DebugAddr
// when set) until ctx is canceled, then shuts down gracefully: readiness is
// flipped via OnDrainStart, in-flight requests get ShutdownGrace to finish,
// both listeners stop together, and OnShutdown runs. It returns nil on a
// clean drain — including when the grace period expires with requests still
// in flight (they are cut off, but the process exits orderly) — and the
// first listener error otherwise.
func Run(ctx context.Context, cfg RunConfig) error {
	cfg.fillDefaults()

	mainLn, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		return err
	}
	defer mainLn.Close()
	if cfg.OnListen != nil {
		cfg.OnListen(mainLn.Addr())
	}

	servers := []*http.Server{newServer(cfg.Handler)}
	listeners := []net.Listener{mainLn}
	if cfg.DebugAddr != "" {
		dbgLn, err := net.Listen("tcp", cfg.DebugAddr)
		if err != nil {
			return err
		}
		defer dbgLn.Close()
		if cfg.OnListen != nil {
			cfg.OnListen(dbgLn.Addr())
		}
		servers = append(servers, newServer(cfg.DebugHandler))
		listeners = append(listeners, dbgLn)
		cfg.Logf("debug listener (pprof, /metrics) on %s", dbgLn.Addr())
	}

	serveErr := make(chan error, len(servers))
	for i, srv := range servers {
		go func(srv *http.Server, ln net.Listener) {
			if err := srv.Serve(ln); !errors.Is(err, http.ErrServerClosed) {
				serveErr <- err
				return
			}
			serveErr <- nil
		}(srv, listeners[i])
	}

	select {
	case <-ctx.Done():
		cfg.Logf("shutdown requested; draining for up to %v", cfg.ShutdownGrace)
	case err := <-serveErr:
		if err != nil {
			return err
		}
		// A listener stopped without error outside shutdown: treat as a
		// shutdown request for the rest.
	}

	if cfg.OnDrainStart != nil {
		cfg.OnDrainStart()
	}
	drainCtx, cancel := context.WithTimeout(context.Background(), cfg.ShutdownGrace)
	defer cancel()
	for _, srv := range servers {
		if err := srv.Shutdown(drainCtx); err != nil {
			cfg.Logf("shutdown: %v (in-flight requests cut off)", err)
		}
	}
	if cfg.OnShutdown != nil {
		cfg.OnShutdown()
	}
	return nil
}
