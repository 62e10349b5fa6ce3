// Command benchmark is the end-to-end yardstick for the served Signaling
// Audit Game: it builds cmd/sagserver from the checkout, runs it as a real
// child process on loopback TCP with the real solver and a real fsync
// policy, drives it from this one process over at most nproc connections,
// checks every response, and prints every metric by name and unit. A traced
// run (-trace 1) adds the per-layer ledger. See README.md.
//
//	go -C benchmark run . -workload alerts_mem -seed 1 -seconds 10 -trace 0
//	go -C benchmark run .                       # all four workloads
//	go -C benchmark run . -trace 1              # ... with the per-layer ledger
//	go -C benchmark run . -compare a.json b.json
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

func main() {
	code := 0
	func() {
		// A panic anywhere in the harness must still reap the children.
		defer func() {
			if p := recover(); p != nil {
				killAllChildren()
				panic(p)
			}
		}()
		if err := mainErr(); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			code = 1
		}
	}()
	killAllChildren()
	os.Exit(code)
}

// findRoot locates the repository root: the benchmark is run from its own
// directory (go -C benchmark run .) or from the root.
func findRoot() (string, error) {
	for _, dir := range []string{"..", "."} {
		if _, err := os.Stat(filepath.Join(dir, "cmd", "sagserver", "main.go")); err == nil {
			if _, err := os.Stat(filepath.Join(dir, "benchmark", "go.mod")); err == nil {
				return filepath.Abs(dir)
			}
		}
	}
	return "", errors.New("cannot find the repository (cmd/sagserver and benchmark/) from the working directory")
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// contractLine is the last line of standard output the driver reads.
type contractLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// runRecord is one run as kept in a result file.
type runRecord struct {
	Workload   string                 `json:"workload"`
	Seed       int64                  `json:"seed"`
	Trace      int                    `json:"trace"`
	Seconds    float64                `json:"seconds"`
	Correct    bool                   `json:"correct"`
	Attempted  int                    `json:"attempted"`
	Failed     int                    `json:"failed"`
	ScriptHash string                 `json:"script_hash"`
	Digest     string                 `json:"digest"`
	DigestOps  int                    `json:"digest_ops"`
	Metrics    map[string]metricValue `json:"metrics"`
	Failures   []string               `json:"failures,omitempty"`
	Segments   []segmentStats         `json:"segments,omitempty"`
}

type envInfo struct {
	Go         string `json:"go"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Commit     string `json:"commit"`
	OS         string `json:"os"`
}

// resultFile is the trajectory format: benchmark/results/BENCH_<pr>.json.
type resultFile struct {
	Schema int         `json:"schema"`
	Env    envInfo     `json:"env"`
	Runs   []runRecord `json:"runs"`
}

func currentEnv(root string) envInfo {
	commit := "unknown"
	cmd := exec.Command("git", "-C", root, "rev-parse", "--short", "HEAD")
	if out, err := cmd.Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	return envInfo{
		Go:         runtime.Version(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Commit:     commit,
		OS:         runtime.GOOS + "/" + runtime.GOARCH,
	}
}

func mainErr() error {
	var (
		workloadName = flag.String("workload", "", "workload to run (default: all four, one after another)")
		seed         = flag.Int64("seed", 1, "script seed: the same seed gives the same requests")
		seconds      = flag.Float64("seconds", runSeconds, "how long the timed part of a run measures")
		trace        = flag.Int("trace", 0, "1 adds the traced in-process run and prints the per-layer ledger instead of the end-to-end metrics")
		out          = flag.String("out", "", "append the run(s) to this result file (BENCH_<pr>.json format)")
		compare      = flag.Bool("compare", false, "compare two result files given as arguments and print a verdict per (workload, metric)")
		manifest     = flag.Bool("manifest", false, "print BENCHMARK.json as the program's workload and metric tables define it, and exit")
	)
	flag.Parse()
	if *manifest {
		return printManifest(os.Stdout)
	}
	if *compare {
		if flag.NArg() != 2 {
			return errors.New("-compare wants two result files")
		}
		return compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
	}
	if flag.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", flag.Arg(0))
	}
	if *seconds <= 0 {
		return errors.New("-seconds must be positive")
	}
	root, err := findRoot()
	if err != nil {
		return err
	}
	outDir := filepath.Join(root, "benchmark", "out")
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	// Leftovers of a run that was killed outright.
	for _, pat := range []string{"data-*", "oracle-*", "shadow-*", "follow-*", "wal-*"} {
		stale, _ := filepath.Glob(filepath.Join(outDir, pat))
		for _, dir := range stale {
			os.RemoveAll(dir)
		}
	}

	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigs
		killAllChildren()
		os.Exit(130)
	}()

	run := workloads
	if *workloadName != "" {
		w := findWorkload(*workloadName)
		if w == nil {
			return fmt.Errorf("unknown workload %q", *workloadName)
		}
		run = []*workload{w}
	}
	env := currentEnv(root)
	fmt.Fprintf(os.Stderr, "benchmark: %s, nproc %d, GOMAXPROCS %d (generator and server both at the box default), commit %s, %d connection(s)\n",
		env.Go, env.NProc, env.GOMAXPROCS, env.Commit, conns())

	allCorrect := true
	for _, w := range run {
		rec, err := runOne(root, outDir, w, *seed, *seconds, *trace == 1, os.Stderr)
		if err != nil {
			return fmt.Errorf("%s: %w", w.Name, err)
		}
		if *out != "" {
			if err := appendResult(*out, env, rec); err != nil {
				return err
			}
		}
		printRun(os.Stdout, rec)
		allCorrect = allCorrect && rec.Correct
	}
	if !allCorrect {
		return errors.New("a correctness check failed (see the failures above)")
	}
	return nil
}

// runOne performs one run and packages its result.
func runOne(root, outDir string, w *workload, seed int64, seconds float64, trace bool, logw io.Writer) (runRecord, error) {
	r := &runner{root: root, outDir: outDir, wl: w, seed: seed, seconds: seconds, trace: trace, logw: logw}
	t0 := time.Now()
	if err := r.run(); err != nil {
		return runRecord{}, err
	}
	rec := runRecord{
		Workload:   w.Name,
		Seed:       seed,
		Seconds:    seconds,
		Correct:    r.failed == 0,
		Attempted:  r.attempted,
		Failed:     r.failed,
		ScriptHash: scriptHash(w, seed, 64),
		Digest:     r.digest,
		DigestOps:  r.digestOps,
		Metrics:    make(map[string]metricValue),
		Failures:   r.failures,
		Segments:   r.segments,
	}
	if trace {
		rec.Trace = 1
	}
	for _, tbl := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range tbl {
			rec.Metrics[d.Name] = metricValue{Value: r.m[d.Name], Unit: d.Unit}
		}
	}
	r.logf("done in %.1f s: %d requests attempted, %d failed", time.Since(t0).Seconds(), r.attempted, r.failed)
	for _, f := range r.failures {
		r.logf("FAILED %s", f)
	}
	return rec, nil
}

// printRun writes the human-readable table and, last, the contract's JSON
// line: the end-to-end metrics of an untraced run, the per-layer ledger of
// a traced one.
func printRun(w io.Writer, rec runRecord) {
	table := endToEnd
	if rec.Trace == 1 {
		table = perLayer
		fmt.Fprintf(w, "%s seed %d (traced): end-to-end context\n", rec.Workload, rec.Seed)
		for _, d := range endToEnd {
			fmt.Fprintf(w, "  %-34s %14.4f %s\n", d.Name, rec.Metrics[d.Name].Value, d.Unit)
		}
	}
	fmt.Fprintf(w, "%s seed %d: correct=%v attempted=%d failed=%d digest=%s over %d requests/tenant\n",
		rec.Workload, rec.Seed, rec.Correct, rec.Attempted, rec.Failed, rec.Digest, rec.DigestOps)
	line := contractLine{Correct: rec.Correct, Attempted: rec.Attempted, Failed: rec.Failed, Metrics: make(map[string]metricValue)}
	for _, d := range table {
		v := rec.Metrics[d.Name]
		fmt.Fprintf(w, "  %-34s %14.4f %s\n", d.Name, v.Value, d.Unit)
		line.Metrics[d.Name] = v
	}
	raw, _ := json.Marshal(line)
	fmt.Fprintf(w, "%s\n", raw)
}

// appendResult adds rec to the result file at path, creating it if needed.
func appendResult(path string, env envInfo, rec runRecord) error {
	rf := resultFile{Schema: 1, Env: env}
	if raw, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(raw, &rf); err != nil {
			return fmt.Errorf("%s: %v", path, err)
		}
	}
	rf.Runs = append(rf.Runs, rec)
	sort.SliceStable(rf.Runs, func(i, j int) bool { return rf.Runs[i].Workload < rf.Runs[j].Workload })
	// One run per line: the file is committed, and a diff should show runs.
	var buf bytes.Buffer
	envJSON, err := json.Marshal(rf.Env)
	if err != nil {
		return err
	}
	fmt.Fprintf(&buf, "{\"schema\":%d,\"env\":%s,\"runs\":[", rf.Schema, envJSON)
	for i, run := range rf.Runs {
		raw, err := json.Marshal(run)
		if err != nil {
			return err
		}
		if i > 0 {
			buf.WriteByte(',')
		}
		buf.WriteByte('\n')
		buf.Write(raw)
	}
	buf.WriteString("\n]}\n")
	return os.WriteFile(path, buf.Bytes(), 0o644)
}

// runSeconds is the run length BENCHMARK.json asks the driver for.
const runSeconds = 15

// printManifest writes BENCHMARK.json from the workload and metric tables,
// so the file the driver reads cannot drift from what the program prints (a
// test compares the committed file with these tables).
func printManifest(w io.Writer) error {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	m := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{
		Command:    []string{"go", "-C", "benchmark", "run", "."},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
	}
	for _, x := range workloads {
		m.Workloads = append(m.Workloads, wl{x.Name, x.Why})
	}
	for _, d := range endToEnd {
		m.EndToEnd = append(m.EndToEnd, e2e{d.Name, d.Unit, d.Better, d.Bound})
	}
	for _, d := range perLayer {
		m.PerLayer = append(m.PerLayer, layer{d.Name, d.Unit, d.Better})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(m)
}
