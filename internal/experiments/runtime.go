package experiments

import (
	"fmt"
	"io"
	"time"

	"github.com/auditgames/sag/internal/core"
	"github.com/auditgames/sag/internal/history"
	"github.com/auditgames/sag/internal/sim"

	"math/rand"
)

// RuntimeReport measures the per-alert SAG optimization latency — the
// paper reports ≈0.02 s per alert on a 2017 laptop (§5) and argues users
// cannot perceive the warning-path overhead.
type RuntimeReport struct {
	Setting     string
	Alerts      int
	Total       time.Duration
	Mean        time.Duration
	Max         time.Duration
	PaperMeanMS float64
	// LPSolves is the number of candidate best-response problems of LP (2)
	// solved across all alerts (one per attackable type per fresh decision).
	LPSolves int
	// Decision-cache effectiveness (zero when the arm runs uncached).
	CacheHits    uint64
	CacheMisses  uint64
	CacheHitRate float64
	// SpeedupVsUncached is the cached arm's mean-latency speedup relative
	// to the uncached 7-type arm (0 for arms without a baseline).
	SpeedupVsUncached float64
}

// Runtime measures the mean and worst per-alert decision latency of the
// full pipeline (future estimation + online SSE + OSSP) on a test day. The
// single-type setting has one arm; the 7-type setting runs two — the exact
// solve on every alert, and the same behind a warm quantized decision cache —
// so the report shows what the cache still buys at the paper's scale.
func Runtime(scale Scale) ([]RuntimeReport, error) {
	var out []RuntimeReport
	settings := []struct {
		name     string
		typeIDs  []int
		budget   float64
		cache    core.CacheConfig
		baseline int // index of the uncached arm this arm is compared to
	}{
		{"single type (Same Last Name), B=20", []int{1}, 20, core.CacheConfig{}, -1},
		{"7 alert types, B=50", sim.AllTable1TypeIDs(), 50, core.CacheConfig{}, -1},
		{"7 alert types, B=50 (cache)", sim.AllTable1TypeIDs(), 50,
			core.CacheConfig{Size: 512, BudgetQuantum: 1, RateQuantum: 5}, 1},
	}
	for _, s := range settings {
		ds, err := sim.BuildTable1Pipeline(scale.pipeline(), s.typeIDs)
		if err != nil {
			return nil, err
		}
		inst, err := sim.Table1Instance(s.typeIDs)
		if err != nil {
			return nil, err
		}
		curves, err := history.NewCurves(ds.Records(0, scale.HistoryDays), ds.NumTypes, scale.HistoryDays)
		if err != nil {
			return nil, err
		}
		rb, err := history.NewRollback(curves, history.DefaultRollbackThreshold)
		if err != nil {
			return nil, err
		}
		eng, err := core.NewEngine(core.Config{
			Instance:  inst,
			Budget:    s.budget,
			Estimator: rb,
			Policy:    core.PolicyOSSP,
			Rand:      rand.New(rand.NewSource(scale.Seed)),
			Cache:     s.cache,
		})
		if err != nil {
			return nil, err
		}
		day := ds.Days[scale.HistoryDays]
		rep := RuntimeReport{Setting: s.name, PaperMeanMS: 20}
		cached := s.cache.Size > 0
		var lastMisses uint64
		for _, a := range day {
			start := time.Now()
			d, err := eng.Process(core.Alert{Type: a.Type, Time: a.Time})
			if err != nil {
				return nil, err
			}
			el := time.Since(start)
			// A cache hit replays the memoized Result, Stats included; count
			// solver effort only for decisions that actually solved.
			fresh := true
			if cached {
				m := eng.CacheStats().Misses
				fresh = m > lastMisses
				lastMisses = m
			}
			if d.SSE != nil && fresh {
				rep.LPSolves += d.SSE.Stats.LPSolves
			}
			rep.Total += el
			if el > rep.Max {
				rep.Max = el
			}
			rep.Alerts++
		}
		if rep.Alerts > 0 {
			rep.Mean = rep.Total / time.Duration(rep.Alerts)
		}
		cs := eng.CacheStats()
		rep.CacheHits, rep.CacheMisses, rep.CacheHitRate = cs.Hits, cs.Misses, cs.HitRate()
		if s.baseline >= 0 && rep.Mean > 0 {
			rep.SpeedupVsUncached = float64(out[s.baseline].Mean) / float64(rep.Mean)
		}
		out = append(out, rep)
	}
	return out, nil
}

// RenderRuntime writes the latency table.
func RenderRuntime(w io.Writer, reps []RuntimeReport) {
	fmt.Fprintln(w, "Runtime — per-alert SAG optimization latency (paper: ≈20 ms/alert)")
	fmt.Fprintf(w, "%-40s %8s %12s %12s %11s %7s %9s\n",
		"setting", "alerts", "mean", "max", "candidates", "hit%", "speedup")
	for _, r := range reps {
		hit, speed := "-", "-"
		if r.CacheHits+r.CacheMisses > 0 {
			hit = fmt.Sprintf("%.0f%%", 100*r.CacheHitRate)
		}
		if r.SpeedupVsUncached > 0 {
			speed = fmt.Sprintf("%.2fx", r.SpeedupVsUncached)
		}
		fmt.Fprintf(w, "%-40s %8d %12s %12s %11d %7s %9s\n",
			r.Setting, r.Alerts, r.Mean, r.Max, r.LPSolves, hit, speed)
	}
}
