package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(values, n=4) does (the exclusive method), which is
// how the driver measures run-to-run spread.
func quartiles(values []float64) (q1, q3 float64) {
	n := len(values)
	if n < 2 {
		if n == 1 {
			return values[0], values[0]
		}
		return 0, 0
	}
	data := append([]float64(nil), values...)
	sort.Float64s(data)
	cut := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		j = max(1, min(j, n-1))
		delta := i*m - j*4
		return (data[j-1]*float64(4-delta) + data[j]*float64(delta)) / 4
	}
	return cut(1), cut(3)
}

// spread is the interquartile distance as a share of the median.
func spread(values []float64) float64 {
	med := median(values)
	if med == 0 {
		return 0
	}
	q1, q3 := quartiles(values)
	return (q3 - q1) / med
}

// verdict judges side b against side a for one metric. worse is b's change
// in the metric's bad direction as a share of a's median.
func verdict(def metricDef, bound float64, a, b []float64) (worse float64, word string) {
	ma, mb := median(a), median(b)
	if ma == 0 {
		if mb == 0 {
			return 0, "unchanged"
		}
		return 0, "unresolved"
	}
	worse = (mb - ma) / ma
	if def.Better == "higher" {
		worse = -worse
	}
	noise := max(spread(a), spread(b))
	switch {
	case noise > bound:
		return worse, "unresolved"
	case worse > bound:
		return worse, "regressed"
	case -worse > spread(a)+spread(b) && -worse > bound/10:
		return worse, "improved"
	default:
		return worse, "unchanged"
	}
}

func readResults(path string) (resultFile, error) {
	var rf resultFile
	raw, err := os.ReadFile(path)
	if err != nil {
		return rf, err
	}
	if err := json.Unmarshal(raw, &rf); err != nil {
		return rf, fmt.Errorf("%s: %v", path, err)
	}
	return rf, nil
}

// valuesOf collects one metric's values over a file's runs of a workload.
// Per-layer metrics are taken from traced runs only: an untraced run leaves
// the T rows at zero.
func valuesOf(rf resultFile, workload string, def metricDef) []float64 {
	var out []float64
	for _, run := range rf.Runs {
		if run.Workload != workload {
			continue
		}
		if def.Src == "T" && run.Trace != 1 {
			continue
		}
		if v, ok := run.Metrics[def.Name]; ok {
			out = append(out, v.Value)
		}
	}
	return out
}

// compareFiles prints, per (workload, metric): both medians, the ratio with
// its base, the bound, and improved | unchanged | regressed | unresolved —
// unresolved when the run-to-run spread of either side exceeds the bound, so
// a noisy metric is never passed off as unchanged. Ledger metrics without a
// bound are listed with their ratio only.
func compareFiles(w io.Writer, pathA, pathB string) error {
	a, err := readResults(pathA)
	if err != nil {
		return err
	}
	b, err := readResults(pathB)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "a = %s (%s, %s)\nb = %s (%s, %s)\n", pathA, a.Env.Commit, a.Env.Go, pathB, b.Env.Commit, b.Env.Go)
	regressed := 0
	for _, wl := range workloads {
		digests := func(rf resultFile) map[string]bool {
			set := make(map[string]bool)
			for _, run := range rf.Runs {
				if run.Workload == wl.Name {
					set[fmt.Sprintf("seed %d: %s/%d", run.Seed, run.Digest, run.DigestOps)] = true
				}
			}
			return set
		}
		da, db := digests(a), digests(b)
		if len(da) == 0 || len(db) == 0 {
			continue
		}
		same := 0
		for k := range da {
			if db[k] {
				same++
			}
		}
		fmt.Fprintf(w, "\n%s: %d run(s) in a, %d in b; %d (seed, response digest) pair(s) in common\n", wl.Name, len(valuesOf(a, wl.Name, endToEnd[0])), len(valuesOf(b, wl.Name, endToEnd[0])), same)
		fmt.Fprintf(w, "  %-34s %12s %12s %18s %7s  %s\n", "metric", "median a", "median b", "b/a (base a)", "bound", "verdict")
		for _, tbl := range [][]metricDef{endToEnd, perLayer} {
			for _, def := range tbl {
				va, vb := valuesOf(a, wl.Name, def), valuesOf(b, wl.Name, def)
				if len(va) == 0 || len(vb) == 0 {
					continue
				}
				ma, mb := median(va), median(vb)
				ratio := "-"
				if ma != 0 {
					ratio = fmt.Sprintf("%.3f of %.4g", mb/ma, ma)
				}
				bound := def.Bound
				if bound == 0 {
					bound = issueBounds[def.Name]
				}
				if bound == 0 || (ma == 0 && mb == 0) {
					fmt.Fprintf(w, "  %-34s %12.4f %12.4f %18s %7s  -\n", def.Name, ma, mb, ratio, "-")
					continue
				}
				_, word := verdict(def, bound, va, vb)
				if word == "regressed" {
					regressed++
				}
				fmt.Fprintf(w, "  %-34s %12.4f %12.4f %18s %7.2f  %s (spread a %.3f, b %.3f)\n",
					def.Name, ma, mb, ratio, bound, word, spread(va), spread(vb))
			}
		}
	}
	if regressed > 0 {
		return fmt.Errorf("%d (workload, metric) pair(s) regressed", regressed)
	}
	return nil
}
