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
	// solved across all alerts (one per attackable type per decision).
	LPSolves int
}

// Runtime measures the mean and worst per-alert decision latency of the
// full pipeline (future estimation + online SSE + OSSP) on a test day, in
// the paper's single-type and 7-type settings.
func Runtime(scale Scale) ([]RuntimeReport, error) {
	var out []RuntimeReport
	settings := []struct {
		name    string
		typeIDs []int
		budget  float64
	}{
		{"single type (Same Last Name), B=20", []int{1}, 20},
		{"7 alert types, B=50", sim.AllTable1TypeIDs(), 50},
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
		})
		if err != nil {
			return nil, err
		}
		day := ds.Days[scale.HistoryDays]
		rep := RuntimeReport{Setting: s.name, PaperMeanMS: 20}
		for _, a := range day {
			start := time.Now()
			d, err := eng.Process(core.Alert{Type: a.Type, Time: a.Time})
			if err != nil {
				return nil, err
			}
			el := time.Since(start)
			if d.SSE != nil {
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
		out = append(out, rep)
	}
	return out, nil
}

// RenderRuntime writes the latency table.
func RenderRuntime(w io.Writer, reps []RuntimeReport) {
	fmt.Fprintln(w, "Runtime — per-alert SAG optimization latency (paper: ≈20 ms/alert)")
	fmt.Fprintf(w, "%-40s %8s %12s %12s %11s\n",
		"setting", "alerts", "mean", "max", "candidates")
	for _, r := range reps {
		fmt.Fprintf(w, "%-40s %8d %12s %12s %11d\n",
			r.Setting, r.Alerts, r.Mean, r.Max, r.LPSolves)
	}
}
