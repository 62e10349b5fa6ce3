// Command sagbench regenerates every table and figure of the paper plus the
// ablations, writing the full experiment report (the source material for
// EXPERIMENTS.md). The runtime table times the per-alert decision against
// the paper's ≈20 ms/alert latency claim.
//
// Usage:
//
//	sagbench                 # full scale: 56 days, 15 groups (paper protocol)
//	sagbench -scale quick    # reduced protocol for smoke runs
//	sagbench -only table1    # run a single experiment
//	sagbench -out report.txt
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"github.com/auditgames/sag/internal/experiments"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "sagbench:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		scaleName = flag.String("scale", "full", "experiment scale: full | quick")
		only      = flag.String("only", "", "run one experiment: table1|table2|figure2|figure3|runtime|rollback|budget|estimator|robust|variants|validation|throughput")
		out       = flag.String("out", "-", "output path (- for stdout)")
	)
	flag.Parse()

	var scale experiments.Scale
	switch *scaleName {
	case "full":
		scale = experiments.FullScale()
	case "quick":
		scale = experiments.QuickScale()
	default:
		return fmt.Errorf("unknown scale %q (want full or quick)", *scaleName)
	}

	var w io.Writer = os.Stdout
	if *out != "-" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}

	switch *only {
	case "":
		return experiments.RunAll(w, scale)
	case "table1":
		rep, err := experiments.Table1(scale)
		if err != nil {
			return err
		}
		rep.Render(w)
	case "table2":
		experiments.Table2().Render(w)
	case "figure2":
		rep, err := experiments.Figure2(scale)
		if err != nil {
			return err
		}
		rep.Render(w)
	case "figure3":
		rep, err := experiments.Figure3(scale)
		if err != nil {
			return err
		}
		rep.Render(w)
	case "runtime":
		reps, err := experiments.Runtime(scale)
		if err != nil {
			return err
		}
		experiments.RenderRuntime(w, reps)
	case "rollback":
		rep, err := experiments.AblationRollback(scale)
		if err != nil {
			return err
		}
		rep.Render(w)
	case "budget":
		rep, err := experiments.AblationBudget(scale, nil)
		if err != nil {
			return err
		}
		rep.Render(w)
	case "estimator":
		experiments.AblationEstimator(nil, nil).Render(w)
	case "robust":
		rep, err := experiments.AblationRobust(1, nil, nil)
		if err != nil {
			return err
		}
		rep.Render(w)
	case "variants":
		rep, err := experiments.AblationRollbackVariants(scale)
		if err != nil {
			return err
		}
		rep.Render(w)
	case "validation":
		rep, err := experiments.Validation(scale, 400)
		if err != nil {
			return err
		}
		rep.Render(w)
	case "throughput":
		days, perDay := 56, 192_000 // the paper's full volume
		if *scaleName == "quick" {
			days, perDay = 4, 20_000
		}
		rep, err := experiments.Throughput(scale.Seed, days, perDay)
		if err != nil {
			return err
		}
		rep.Render(w)
	default:
		return fmt.Errorf("unknown experiment %q", *only)
	}
	return nil
}
