// Command sagserver runs the Signaling Audit Game as an HTTP service over
// a synthetic hospital — the deployment shape the paper describes: the EMR
// front end posts every access; the service answers, in real time, whether
// to show the "this access may be investigated" warning.
//
// Usage:
//
//	sagserver -addr :8080 -budget 50 -seed 2017
//
// Then:
//
//	curl -s -X POST localhost:8080/v1/access \
//	     -d '{"employee_id": 400, "patient_id": 2000}'
//	curl -s localhost:8080/v1/status
//	curl -s -X POST localhost:8080/v1/cycle/close -d '{}'
//
// The service estimates future alert volumes from a simulated 41-day
// history of the same synthetic world, with the paper's knowledge-rollback
// stabilizer.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"github.com/auditgames/sag/internal/admit"
	"github.com/auditgames/sag/internal/alerts"
	"github.com/auditgames/sag/internal/emr"
	"github.com/auditgames/sag/internal/history"
	"github.com/auditgames/sag/internal/server"
	"github.com/auditgames/sag/internal/sim"
	"github.com/auditgames/sag/internal/wal"
)

func main() {
	if err := run(); err != nil {
		log.Fatal("sagserver: ", err)
	}
}

func run() error {
	var (
		addr      = flag.String("addr", ":8080", "listen address")
		debugAddr = flag.String("debug-addr", "", "optional debug listen address serving net/http/pprof and /metrics (e.g. localhost:6060)")
		budget    = flag.Float64("budget", 50, "audit budget for the current cycle")
		seed      = flag.Int64("seed", 2017, "world/engine seed")
		histDays  = flag.Int("history", 41, "days of simulated history to fit arrival curves on")
		employees = flag.Int("employees", 400, "background employees in the synthetic world")
		patients  = flag.Int("patients", 2000, "background patients in the synthetic world")

		// There is no decision cache. -cache-size is accepted and ignored only
		// because benchmark/ starts every server with "-cache-size 0"; remove
		// it with the next change to benchmark/.
		_ = flag.Int("cache-size", 0, "ignored: there is no decision cache (kept so old command lines still start)")

		requestTimeout = flag.Duration("request-timeout", 10*time.Second, "per-request deadline: a request still waiting when it passes answers 503 having changed nothing (0 = none)")
		shutdownGrace  = flag.Duration("shutdown-grace", 10*time.Second, "time in-flight requests get to finish on SIGINT/SIGTERM")

		dataDir         = flag.String("data-dir", "", "enable durability: per-tenant write-ahead journals and snapshots live under this directory, and restarts recover the exact engine state")
		fsyncMode       = flag.String("fsync", "always", "journal durability policy with -data-dir: always (fsync before every ack), interval (group fsync on a timer), none (OS page cache only)")
		snapshotEvery   = flag.Int("snapshot-every", 0, "with -data-dir, the retention scan snapshots a tenant once this many journal records follow its newest snapshot (0 = default)")
		walSegmentBytes = flag.Int64("wal-segment-bytes", 0, "journal segment roll size in bytes with -data-dir (0 = default; drills shrink it to force rolls)")
		diskBudget      = flag.Int64("disk-budget", 0, "box-wide journal disk budget in bytes with -data-dir: the retention scan also snapshots-then-prunes tenants to stay under it, and tenants with nothing to reclaim answer 507 while over budget (0 = no budget)")
		compactInterval = flag.Duration("compact-interval", 0, "retention scan cadence with -data-dir; also the 507 Retry-After (0 = 1s)")
		fixedClock      = flag.Duration("fixed-clock", -1, "pin the cycle clock to a fixed offset, e.g. 9h (deterministic runs and crash drills; negative = wall clock)")

		follow = flag.String("follow", "", "run as a hot standby replicating from this primary base URL (e.g. http://127.0.0.1:8080); requires -data-dir, tenant routes answer 503 and /v1/readyz reports ready only at zero replication lag until POST /v1/admin/promote")

		maxTenants = flag.Int("max-tenants", 0, "resident tenant cap; requests for new tenants beyond it answer 429 (0 = default)")

		maxInflight = flag.Int("max-inflight", 0, "box-wide cap on concurrently admitted mutations; excess requests queue or shed (0 disables admission control)")
		queueDepth  = flag.Int("queue-depth", 0, "box-wide admission queue bound with -max-inflight; a full queue sheds with 503 (0 = no queue: shed immediately when saturated)")
	)
	flag.Parse()

	fsync, err := wal.ParseFsyncPolicy(*fsyncMode)
	if err != nil {
		return err
	}

	cfg, err := gameConfig(*seed, *employees, *patients, *histDays, *budget)
	if err != nil {
		return err
	}
	cfg.RequestTimeout = *requestTimeout
	cfg.MaxTenants = *maxTenants
	cfg.Admission = admit.Config{MaxInflight: *maxInflight, QueueDepth: *queueDepth}
	cfg.DataDir = *dataDir
	cfg.Fsync = fsync
	cfg.SnapshotEvery = *snapshotEvery
	cfg.SegmentBytes = *walSegmentBytes
	cfg.DiskBudgetBytes = *diskBudget
	cfg.CompactInterval = *compactInterval
	cfg.FollowPrimary = *follow
	if *fixedClock >= 0 {
		at := *fixedClock
		cfg.Clock = func() time.Duration { return at }
	}
	srv, err := server.New(cfg)
	if err != nil {
		return err
	}
	if *dataDir != "" {
		slog.Info("durability on, every tenant on disk restored", "data_dir", *dataDir, "fsync", fsync)
	}
	if *dataDir != "" && *diskBudget > 0 {
		slog.Info("retention on, over-budget tenants with nothing to reclaim answer 507",
			"disk_budget_bytes", *diskBudget, "compact_interval", *compactInterval)
	}
	if cfg.Admission.Enabled() {
		slog.Info("admission control on, a shed answers 503 with Retry-After",
			"max_inflight", *maxInflight, "queue_depth", *queueDepth)
	}

	// Side listener for operators: pprof profiles plus a second mount of
	// the Prometheus registry, so profiling traffic never competes with
	// the decision path on the main listener. It shares the graceful
	// lifecycle with the main listener — both drain and stop together.
	var dbg http.Handler
	if *debugAddr != "" {
		mux := http.NewServeMux()
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		mux.Handle("/metrics", srv.Metrics().Handler())
		dbg = mux
	}

	fmt.Printf("sagserver listening on %s (budget %g, %d alert types)\n", *addr, *budget, len(cfg.TypeIDs))
	fmt.Println("  POST /v1/access {employee_id, patient_id} → {alert, warn, ...}")
	fmt.Println("  POST /v1/quit {employee_id}")
	fmt.Println("  POST /v1/cycle/close {} · POST /v1/cycle/new {budget} · GET /v1/cycle/summary")
	fmt.Println("  GET /v1/status · GET /v1/metrics · GET /v1/healthz · GET /v1/readyz")
	fmt.Println("  POST /v1/admin/snapshot {tenant?} (with -data-dir)")
	fmt.Printf("  multi-tenant: route with the %s header or a \"tenant\" body field\n", server.TenantHeader)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *follow != "" {
		if err := srv.StartFollowing(ctx); err != nil {
			return err
		}
		slog.Info("standby, tenant routes answer 503 until POST /v1/admin/promote", "primary", *follow)
	}
	return server.Run(ctx, server.RunConfig{
		Addr:          *addr,
		Handler:       srv.Handler(),
		DebugAddr:     *debugAddr,
		DebugHandler:  dbg,
		ShutdownGrace: *shutdownGrace,
		OnDrainStart:  func() { srv.SetReady(false) },
		OnShutdown: func() {
			sums := srv.CycleSummaries()
			for _, id := range srv.Tenants() {
				s := sums[id]
				slog.Info("final cycle summary", "tenant", id, "alerts", s.Alerts, "warnings", s.Warnings,
					"sag_engaged", s.SAGEngaged, "budget_spent", s.BudgetSpent)
			}
			// With -data-dir this snapshots every tenant and seals the
			// journals, making SIGTERM indistinguishable from a clean
			// restart.
			if err := srv.Close(); err != nil {
				slog.Error("sealing journals failed", "err", err)
			}
		},
	})
}

// gameConfig builds the part of the configuration that defines the served
// game rather than how the process is operated: the synthetic world, the
// Table 1 taxonomy and instance, and arrival curves fitted on histDays of
// simulated history. Every tenant shares one knowledge-rollback estimator
// over them: it holds no state, each engine keeps its own estimate.
func gameConfig(seed int64, employees, patients, histDays int, budget float64) (server.Config, error) {
	slog.Info("building synthetic world", "employees", employees, "patients", patients)
	world, err := emr.NewWorld(emr.WorldConfig{Seed: seed, Employees: employees, Patients: patients})
	if err != nil {
		return server.Config{}, err
	}
	gen, err := emr.NewGenerator(world, emr.GeneratorConfig{Seed: seed, BackgroundPerDay: 500, PairsPerKind: 120})
	if err != nil {
		return server.Config{}, err
	}
	taxonomy := alerts.NewTable1Taxonomy()
	detector, err := alerts.NewEngine(world, taxonomy)
	if err != nil {
		return server.Config{}, err
	}

	slog.Info("fitting arrival curves on simulated history", "days", histDays)
	typeIDs := sim.AllTable1TypeIDs()
	ds, err := sim.BuildDataset(gen, detector, histDays, typeIDs)
	if err != nil {
		return server.Config{}, err
	}
	curves, err := history.NewCurves(ds.Records(0, histDays), len(typeIDs), histDays)
	if err != nil {
		return server.Config{}, err
	}
	inst, err := sim.Table1Instance(typeIDs)
	if err != nil {
		return server.Config{}, err
	}
	rollback, err := history.NewRollback(curves, history.DefaultRollbackThreshold)
	if err != nil {
		return server.Config{}, err
	}
	return server.Config{
		World:     world,
		Taxonomy:  taxonomy,
		TypeIDs:   typeIDs,
		Instance:  inst,
		Budget:    budget,
		Estimator: rollback,
		Seed:      seed,
	}, nil
}
