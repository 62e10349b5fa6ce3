package main

import (
	"time"

	"github.com/auditgames/sag/internal/admit"
	"github.com/auditgames/sag/internal/alerts"
	"github.com/auditgames/sag/internal/emr"
	"github.com/auditgames/sag/internal/game"
	"github.com/auditgames/sag/internal/history"
	"github.com/auditgames/sag/internal/server"
	"github.com/auditgames/sag/internal/sim"
	"github.com/auditgames/sag/internal/wal"
)

// The fixed conditions every child server runs under; the in-process copies
// below must match them or the response digests will not.
const (
	serverSeed     = 2017
	historyDays    = 41
	fixedClock     = 9 * time.Hour
	requestTimeout = 10 * time.Second // sagserver's -request-timeout default
)

// world is the synthetic hospital, detection rules, fitted arrival curves
// and game instance, built exactly as cmd/sagserver builds them at its
// defaults. It is immutable once built and shared by the oracle, the shadow
// path and the layer timings.
type world struct {
	emr      *emr.World
	taxonomy *alerts.Taxonomy
	detector *alerts.Engine
	typeIDs  []int
	typeIdx  map[int]int
	curves   *history.Curves
	inst     *game.Instance
	buildS   float64
}

func buildWorld() (*world, error) {
	t0 := time.Now()
	w, err := emr.NewWorld(emr.WorldConfig{Seed: serverSeed, Employees: worldEmployees, Patients: worldPatients})
	if err != nil {
		return nil, err
	}
	gen, err := emr.NewGenerator(w, emr.GeneratorConfig{Seed: serverSeed, BackgroundPerDay: 500, PairsPerKind: pairsPerKind})
	if err != nil {
		return nil, err
	}
	taxonomy := alerts.NewTable1Taxonomy()
	detector, err := alerts.NewEngine(w, taxonomy)
	if err != nil {
		return nil, err
	}
	typeIDs := sim.AllTable1TypeIDs()
	index := make(map[int]int, len(typeIDs))
	for i, id := range typeIDs {
		index[id] = i
	}
	var recs []history.Record
	for d := 0; d < historyDays; d++ {
		scanned, err := detector.Scan(gen.Day(d))
		if err != nil {
			return nil, err
		}
		for _, a := range scanned {
			if idx, ok := index[a.Type]; ok {
				recs = append(recs, history.Record{Day: d, Type: idx, Time: a.Time})
			}
		}
	}
	curves, err := history.NewCurves(recs, len(typeIDs), historyDays)
	if err != nil {
		return nil, err
	}
	inst, err := sim.Table1Instance(typeIDs)
	if err != nil {
		return nil, err
	}
	return &world{
		emr:      w,
		taxonomy: taxonomy,
		detector: detector,
		typeIDs:  typeIDs,
		typeIdx:  index,
		curves:   curves,
		inst:     inst,
		buildS:   time.Since(t0).Seconds(),
	}, nil
}

// rollback returns a fresh knowledge-rollback estimator over the curves —
// one per server, shared by its tenants, as cmd/sagserver wires it.
func (w *world) rollback() (*history.Rollback, error) {
	return history.NewRollback(w.curves, history.DefaultRollbackThreshold)
}

// serverConfig is the server.Config cmd/sagserver would assemble for the
// workload's flags, for the in-process oracle.
func (w *world) serverConfig(wl *workload, dataDir string, fsync wal.FsyncPolicy) (server.Config, error) {
	est, err := w.rollback()
	if err != nil {
		return server.Config{}, err
	}
	cfg := server.Config{
		World:          w.emr,
		Taxonomy:       w.taxonomy,
		TypeIDs:        w.typeIDs,
		Instance:       w.inst,
		Budget:         cycleBudget,
		Estimator:      est,
		Seed:           serverSeed,
		RequestTimeout: requestTimeout,
		Admission:      admit.Config{MaxInflight: wl.MaxInflight, QueueDepth: wl.QueueDepth},
		Clock:          func() time.Duration { return fixedClock },
	}
	if wl.Durable {
		cfg.DataDir = dataDir
		cfg.Fsync = fsync
		if wl.NoAutoSnapshot {
			cfg.SnapshotEvery = 1_000_000_000
		}
		cfg.SegmentBytes = wl.SegmentBytes
		cfg.DiskBudgetBytes = wl.DiskBudget
	}
	return cfg, nil
}
