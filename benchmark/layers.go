package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"
	"runtime"
	"time"

	"github.com/auditgames/sag/internal/admit"
	"github.com/auditgames/sag/internal/core"
	"github.com/auditgames/sag/internal/dist"
	"github.com/auditgames/sag/internal/emr"
	"github.com/auditgames/sag/internal/game"
	"github.com/auditgames/sag/internal/lp"
	"github.com/auditgames/sag/internal/obs"
	"github.com/auditgames/sag/internal/server"
	"github.com/auditgames/sag/internal/shard"
	"github.com/auditgames/sag/internal/signaling"
	"github.com/auditgames/sag/internal/sim"
	"github.com/auditgames/sag/internal/wal"
)

// sink defeats dead-code elimination of the timed calls.
var sink any

// timeOp runs f iters times per batch and returns the median batch's mean
// nanoseconds per call.
func timeOp(iters, batches int, f func()) float64 {
	per := make([]float64, batches)
	for b := range per {
		t0 := time.Now()
		for i := 0; i < iters; i++ {
			f()
		}
		per[b] = float64(time.Since(t0)) / float64(iters)
	}
	return median(per)
}

// allocsOp returns heap allocations per call of f.
func allocsOp(iters int, f func()) float64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < iters; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(iters)
}

// timeLayers times each layer on its own by calling its public functions —
// the T rows of the ledger. The inputs are the served world's own: the
// fitted curves at the pinned clock, the Table 1 instance, the planted and
// background pairs.
func timeLayers(wd *world, outDir string, m map[string]float64) error {
	ctx := context.Background()

	// server: JSON in and out, as handleAccess decodes and writeJSON encodes.
	reqBody := []byte(`{"employee_id":1234,"patient_id":2834}`)
	m["server.json_decode_ns"] = timeOp(2000, 9, func() {
		var req server.AccessRequest
		_ = json.NewDecoder(bytes.NewReader(reqBody)).Decode(&req)
		sink = req
	})
	resp := server.AccessResponse{Alert: true, TypeID: 3, Rules: "Neighbor (<=0.5 miles)", Warn: true, RemainingBudget: 41.37338697581442}
	m["server.json_encode_ns"] = timeOp(2000, 9, func() {
		_ = json.NewEncoder(io.Discard).Encode(resp)
	})

	// admit: an uncontended admit and release under the mix's caps.
	ctl, err := admit.New(admit.Config{MaxInflight: 8, QueueDepth: 16})
	if err != nil {
		return err
	}
	m["admit.admit_ns"] = timeOp(2000, 9, func() {
		release, err := ctl.Admit(ctx, "t00")
		if err == nil {
			release()
		}
	})

	// shard: the resident-tenant lookup every request makes, at 32 tenants.
	est, err := wd.rollback()
	if err != nil {
		return err
	}
	newEngine := func() (*core.Engine, error) {
		return core.NewEngine(core.Config{
			Instance:     wd.inst,
			Budget:       cycleBudget,
			Estimator:    est,
			Policy:       core.PolicyOSSP,
			Rand:         rand.New(rand.NewSource(serverSeed)),
			Metrics:      obs.NewRegistry(),
			MetricLabels: []obs.Label{obs.L("tenant", "t00")},
			Fallback:     true,
		})
	}
	router, err := shard.NewRouter(shard.Config{New: func(string) (*core.Engine, any, error) {
		e, err := newEngine()
		return e, nil, err
	}})
	if err != nil {
		return err
	}
	for i := 0; i < 32; i++ {
		if _, _, err := router.GetOrCreate(tenantID(i)); err != nil {
			return err
		}
	}
	i := 0
	m["shard.resolve_hit_ns"] = timeOp(4000, 9, func() {
		tn, _ := router.Get(tenantID(i % 32))
		sink = tn
		i++
	})

	// alerts: the rule join for a background pair and for a planted pair.
	m["alerts.evaluate_benign_ns"] = timeOp(2000, 9, func() {
		a, _, _ := wd.detector.Evaluate(emr.AccessEvent{Time: fixedClock, EmployeeID: i % worldEmployees, PatientID: (i * 7) % worldPatients})
		sink = a
		i++
	})
	m["alerts.evaluate_alert_ns"] = timeOp(2000, 9, func() {
		k, j := i%alertKinds, (i*13)%pairsPerKind
		a, _, _ := wd.detector.Evaluate(emr.AccessEvent{Time: fixedClock, EmployeeID: worldEmployees + pairsPerKind*k + j, PatientID: worldPatients + pairsPerKind*k + j})
		sink = a
		i++
	})

	// history: the future-rate estimate at the pinned clock.
	m["history.estimate_ns"] = timeOp(2000, 9, func() {
		r, _ := est.FutureRates(fixedClock)
		sink = r
	})

	// dist: the seven coverage-linearization coefficients one solve needs.
	rates, err := est.FutureRates(fixedClock)
	if err != nil {
		return err
	}
	futures := make([]dist.Poisson, len(rates))
	for t, r := range rates {
		if futures[t], err = dist.NewPoisson(r); err != nil {
			return err
		}
	}
	m["dist.inverse_mean_ns"] = timeOp(500, 9, func() {
		s := 0.0
		for _, f := range futures {
			s += f.InverseMeanCoefficient()
		}
		sink = s
	})

	// game: the online SSE (LP (2), one candidate LP per type), fanned out
	// over the pool as served and sequentially.
	sse := func(inst *game.Instance) func() {
		return func() {
			res, err := game.SolveOnlineSSE(inst, cycleBudget, futures)
			if err != nil {
				panic(err)
			}
			sink = res
		}
	}
	m["game.sse_us"] = timeOp(300, 9, sse(wd.inst)) / 1e3
	m["game.sse_allocs"] = allocsOp(300, sse(wd.inst))
	seq, err := sim.Table1Instance(wd.typeIDs)
	if err != nil {
		return err
	}
	seq.SetWorkers(1)
	m["game.sse_seq_us"] = timeOp(300, 9, sse(seq)) / 1e3

	// lp: one candidate LP of LP (2)'s shape — 7 allocations, 6
	// best-response rows, the budget row — built and solved.
	m["lp.solve_us"] = timeOp(1000, 9, func() { sink = solveCandidateShaped(wd.inst, futures) }) / 1e3

	// signaling: LP (3) in closed form and through the simplex.
	pf := wd.inst.Payoffs[0]
	m["signaling.closed_form_ns"] = timeOp(5000, 9, func() {
		s, _ := signaling.Solve(pf, 0.15)
		sink = s
	})
	m["signaling.lp_us"] = timeOp(500, 9, func() {
		s, _ := signaling.SolveLP(pf, 0.15)
		sink = s
	}) / 1e3

	// core: a whole decision without a journal. (The commit's own cost,
	// core.commit_self_us, comes from the trace: the core.process span minus
	// its estimate and solve children, measured within one request.)
	eng, err := newEngine()
	if err != nil {
		return err
	}
	process := func() {
		if i%256 == 0 {
			_ = eng.NewCycle(cycleBudget)
		}
		d, err := eng.Process(core.Alert{Type: i % alertKinds, Time: fixedClock})
		if err != nil {
			panic(err)
		}
		sink = d
		i++
	}
	m["core.process_us"] = timeOp(300, 9, process) / 1e3
	m["core.process_allocs"] = allocsOp(300, process)

	return timeWAL(eng, outDir, m)
}

// solveCandidateShaped builds and solves one LP with the shape of
// game.solveCandidate's for candidate type 0 at the daily budget.
func solveCandidateShaped(inst *game.Instance, futures []dist.Poisson) *lp.Solution {
	k := inst.NumTypes()
	slope := make([]float64, k)
	p := lp.New(lp.Maximize, k)
	for j := 0; j < k; j++ {
		c := futures[j].InverseMeanCoefficient()
		slope[j] = c / inst.AuditCosts[j]
		hi := float64(cycleBudget)
		if c > 0 && inst.AuditCosts[j]/c < hi {
			hi = inst.AuditCosts[j] / c
		}
		_ = p.SetBounds(j, 0, hi)
	}
	pt := inst.Payoffs[0]
	obj := make([]float64, k)
	obj[0] = slope[0] * (pt.DefenderCovered - pt.DefenderUncovered)
	_ = p.SetObjective(obj)
	for j := 1; j < k; j++ {
		pj := inst.Payoffs[j]
		row := make([]float64, k)
		row[0] = slope[0] * (pt.AttackerCovered - pt.AttackerUncovered)
		row[j] = -slope[j] * (pj.AttackerCovered - pj.AttackerUncovered)
		_ = p.AddConstraint(row, lp.GE, pj.AttackerUncovered-pt.AttackerUncovered)
	}
	ones := make([]float64, k)
	for j := range ones {
		ones[j] = 1
	}
	_ = p.AddConstraint(ones, lp.LE, cycleBudget)
	sol, err := lp.Solve(p)
	if err != nil {
		panic(err)
	}
	return sol
}

// timeWAL times the journal on its own: one appender under each fsync
// policy, a snapshot of a 512-decision cycle, and recovery of a populated
// directory. The file system is the checkout's, as it is for the child.
func timeWAL(eng *core.Engine, outDir string, m map[string]float64) error {
	rec := wal.Record{Kind: wal.KindDecision, Decision: core.DecisionRecord{
		Seq: 7, Type: 3, Time: fixedClock, Warned: true, AppliedSAG: true,
		Theta: 0.152542372881356, AuditCharge: 0.152542372881356,
		BudgetBefore: 48.90875173222471, BudgetAfter: 48.71520334512793,
		SSEUtility: -329.72225100034177, OSSPUtility: -290.5061178414944,
	}}
	for _, pol := range []struct {
		name  string
		fsync wal.FsyncPolicy
		iters int
	}{
		{"wal.append_always_us", wal.FsyncAlways, 100},
		{"wal.append_interval_us", wal.FsyncInterval, 2000},
		{"wal.append_none_us", wal.FsyncNone, 2000},
	} {
		dir, err := os.MkdirTemp(outDir, "wal-*")
		if err != nil {
			return err
		}
		j, _, err := wal.Open(dir, wal.Options{Fsync: pol.fsync})
		if err != nil {
			os.RemoveAll(dir)
			return err
		}
		var appendErr error
		ns := timeOp(pol.iters, 5, func() {
			wait, err := j.Append(rec)
			if err == nil && wait != nil {
				err = wait()
			}
			if err != nil {
				appendErr = err
			}
		})
		_ = j.Close()
		os.RemoveAll(dir)
		if appendErr != nil {
			return fmt.Errorf("%s: %v", pol.name, appendErr)
		}
		m[pol.name] = ns / 1e3
	}

	// A snapshot as the server writes one mid-cycle: the engine's export of
	// a 512-decision cycle, JSON-encoded, appended, fsynced, pruned behind.
	_ = eng.NewCycle(1e9)
	for i := 0; i < 512; i++ {
		if _, err := eng.Process(core.Alert{Type: i % alertKinds, Time: fixedClock}); err != nil {
			return err
		}
	}
	blob, err := json.Marshal(eng.ExportState())
	if err != nil {
		return err
	}
	dir, err := os.MkdirTemp(outDir, "wal-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	j, _, err := wal.Open(dir, wal.Options{Fsync: wal.FsyncNone})
	if err != nil {
		return err
	}
	var snapErr error
	m["wal.snapshot_write_ms"] = timeOp(1, 9, func() {
		if err := j.Snapshot(blob); err != nil {
			snapErr = err
		}
	}) / 1e6
	if snapErr != nil {
		return snapErr
	}

	// Recovery: the last snapshot plus a 4096-record tail, scanned,
	// CRC-checked and decoded as a boot does.
	const tail = 4096
	for i := 0; i < tail; i++ {
		if _, err := j.Append(rec); err != nil {
			return err
		}
	}
	if err := j.Close(); err != nil {
		return err
	}
	var records int
	var recErr error
	recoverNs := timeOp(1, 7, func() {
		r, err := wal.Recover(dir)
		if err != nil {
			recErr = err
			return
		}
		records = r.Records
	})
	if recErr != nil {
		return recErr
	}
	m["wal.recover_ms"] = recoverNs / 1e6
	m["wal.replay_records_per_s"] = float64(records) / (recoverNs / 1e9)
	return nil
}
