package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"

	"github.com/auditgames/sag/internal/wal"
)

const (
	setupRepeats  = 7 // set-ups per run unless the runner says otherwise; setup_s is their median
	timedSegments = 20
	bootTimeout   = 2 * time.Minute
	drainTimeout  = 30 * time.Second
	sloP99Ms      = 10.0 // the latency limit behind client.slo_rate_per_s
)

// runner carries one (workload, seed) run from set-up to verdict.
type runner struct {
	root    string // repository root
	outDir  string // benchmark/out: binaries, logs, data dirs, traces
	wl      *workload
	seed    int64
	seconds float64
	trace   bool
	setups  int       // set-ups to take the median of (0 = setupRepeats)
	logw    io.Writer // progress and warnings (stderr)

	admin *http.Client
	m     map[string]float64 // every metric measured, by name

	srv     *child
	dataDir string
	conns   []*conn
	tenants []*tenantRun

	attempted int
	failed    int
	failures  []string
	digest    string
	digestOps int
	segments  []segmentStats // the timed run's slices, kept for the result file
}

func (r *runner) failf(format string, args ...any) {
	r.failed++
	if len(r.failures) < 16 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

func (r *runner) logf(format string, args ...any) {
	fmt.Fprintf(r.logw, "["+r.wl.Name+"] "+format+"\n", args...)
}

func (r *runner) serverLog() string {
	return filepath.Join(r.outDir, r.wl.Name+".server.log")
}

// cleanup stops whatever is still running and removes the run's data.
func (r *runner) cleanup() {
	for _, c := range r.conns {
		c.close()
	}
	if r.srv != nil {
		r.srv.kill()
	}
	if r.dataDir != "" {
		os.RemoveAll(r.dataDir)
	}
}

// setupTimes is how long the parts of one set-up took, in seconds, and each
// tenant's first-request round trip.
type setupTimes struct {
	build, boot, warm float64
	createUs          []float64
}

// setupOnce is one complete set-up: build the server from source, boot it
// on a fresh data dir, wait for readiness, and send every tenant its
// warm-up request. It leaves the runner holding the live server.
func (r *runner) setupOnce() (st setupTimes, err error) {
	t0 := time.Now()
	bin, err := buildServer(r.root, r.outDir)
	if err != nil {
		return st, err
	}
	st.build = time.Since(t0).Seconds()

	t1 := time.Now()
	if r.wl.Durable {
		if r.dataDir, err = os.MkdirTemp(r.outDir, "data-*"); err != nil {
			return st, err
		}
	}
	if r.srv, err = startServer(bin, r.serverLog(), r.wl.serverArgs(r.dataDir)...); err != nil {
		return st, err
	}
	if err = r.srv.waitHTTP(r.admin, r.srv.base+"/v1/readyz", bootTimeout); err != nil {
		return st, err
	}
	st.boot = time.Since(t1).Seconds()

	t2 := time.Now()
	n := conns()
	r.conns = make([]*conn, n)
	for i := range r.conns {
		r.conns[i] = newConn(r.srv.base)
	}
	r.tenants = make([]*tenantRun, r.wl.Tenants)
	for i := range r.tenants {
		t := newTenantRun(r.wl, r.seed, i)
		r.tenants[i] = t
		c := r.conns[i%n]
		c.tenants = append(c.tenants, t)
		start, end, _ := c.send(t, warmOp)
		st.createUs = append(st.createUs, float64(end.Sub(start))/float64(time.Microsecond))
	}
	st.warm = time.Since(t2).Seconds()
	return st, nil
}

// setup performs the set-up several times, tearing all but the last
// down, and reports the median — a single set-up's time is mostly the
// build's and the boot's luck with the page cache. It is the one time-based
// end-to-end number reported raw: no request loop runs beside it to carry
// the speed probe, and a probe run on its own on an idle box reads a
// different (boosted) clock than the set-up saw.
func (r *runner) setup() error {
	var total, build, boot, warm []float64
	var createUs []float64
	repeats := r.setups
	if repeats <= 0 {
		repeats = setupRepeats
	}
	for i := 0; i < repeats; i++ {
		if i > 0 {
			r.cleanup()
			r.srv, r.dataDir, r.conns, r.tenants = nil, "", nil, nil
		}
		st, err := r.setupOnce()
		if err != nil {
			return err
		}
		build, boot, warm = append(build, st.build), append(boot, st.boot), append(warm, st.warm)
		total = append(total, st.build+st.boot+st.warm)
		createUs = st.createUs
	}
	r.m["setup_s"] = median(total)
	r.m["setup.build_s"] = median(build)
	r.m["setup.boot_to_ready_s"] = median(boot)
	r.m["setup.warmup_s"] = median(warm)
	r.m["shard.create_us"] = median(createUs)
	return nil
}

// snapshotState is what is read off the server before and after the timed
// run; the ledger's S rows are the differences.
type snapshotState struct {
	prom promScrape
	mem  memStats
}

func (r *runner) observe() (snapshotState, error) {
	var s snapshotState
	var err error
	if s.prom, err = scrapeMetrics(r.admin, r.srv.base); err != nil {
		return s, err
	}
	s.mem, err = scrapeMemStats(r.admin, r.srv.debug)
	return s, err
}

func selfCPUSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// run executes the whole workload and fills r.m.
func (r *runner) run() error {
	r.m = make(map[string]float64)
	r.admin = &http.Client{Timeout: 30 * time.Second}
	defer r.cleanup()

	if err := r.setup(); err != nil {
		return err
	}
	before, err := r.observe()
	if err != nil {
		return err
	}

	// The timed run: every connection in its own goroutine, one request
	// in flight per connection; a third goroutine reads the server's CPU
	// clock at each slice boundary.
	selfBefore := selfCPUSeconds()
	t0 := time.Now()
	window := time.Duration(r.seconds * float64(time.Second))
	deadline := t0.Add(window)
	var wg sync.WaitGroup
	cpuAt := make([]float64, timedSegments+1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for k := range cpuAt {
			time.Sleep(time.Until(t0.Add(window * time.Duration(k) / timedSegments)))
			cpuAt[k], _ = procCPUSeconds(r.srv.pid())
		}
	}()
	for i, c := range r.conns {
		wg.Add(1)
		go func(i int, c *conn) {
			defer wg.Done()
			// The speed probe reads this thread's CPU clock.
			runtime.LockOSThread()
			defer runtime.UnlockOSThread()
			c.begin(t0, window/timedSegments, timedSegments)
			defer c.end()
			if r.wl.Steps != nil {
				c.runOpen(i, len(r.conns), r.wl.Steps, r.seconds)
			} else {
				c.runClosed(deadline, r.wl.MinOps)
			}
		}(i, c)
	}
	wg.Wait()
	elapsed := time.Since(t0)
	selfCPU := selfCPUSeconds() - selfBefore

	after, err := r.observe()
	if err != nil {
		return err
	}
	rss, err := procPeakRSSMB(r.srv.pid())
	if err != nil {
		return err
	}
	r.m["server_rss_mb"] = rss

	okOps := r.clientMetrics(elapsed, cpuAt)
	if okOps == 0 {
		return fmt.Errorf("no request succeeded (see %s)", r.serverLog())
	}
	r.m["client.cpu_us_per_op"] = selfCPU / float64(okOps) * 1e6
	if busy := selfCPU / elapsed.Seconds(); busy > 0.9 {
		return fmt.Errorf("the generator used %.2f CPU-seconds per second (%.0f us/op at %.0f ops/s): it is saturating a core, so the latencies are its own, not the server's",
			busy, r.m["client.cpu_us_per_op"], float64(okOps)/elapsed.Seconds())
	}
	r.serverMetrics(before, after, okOps)

	// Books: finish interrupted rolls, then every tenant's /v1/status must
	// equal the client's own tallies.
	for _, c := range r.conns {
		c.finishRolls()
		for _, t := range c.tenants {
			c.send(t, op{kind: opStatus})
		}
	}
	r.scrapeCost()
	mutations := r.mutations()
	if r.wl.Durable {
		bytes, segs, pruned, prunedTenants := journalFootprint(r.dataDir)
		r.m["retain.journal_bytes_end"] = float64(bytes)
		r.m["wal.segments_end"] = float64(segs)
		r.m["retain.pruned_segments_total"] = float64(pruned)
		r.m["wal.bytes_per_op"] = float64(bytes) / float64(mutations)
		if r.wl.Recover && prunedTenants < r.wl.Tenants {
			r.failf("only %d of %d tenants had a journal segment pruned", prunedTenants, r.wl.Tenants)
		}
	}

	if r.wl.Recover {
		if err := r.recoverPhases(); err != nil {
			return err
		}
	}
	drain, err := r.srv.term(drainTimeout)
	if err != nil {
		r.failf("drain: %v", err)
	}
	r.m["server.drain_s"] = drain.Seconds()
	r.srv = nil

	r.collectFailures()
	return r.replays()
}

// clientMetrics reduces the connections' samples to the client-side numbers
// and returns the count of successful timed requests.
func (r *runner) clientMetrics(elapsed time.Duration, cpuAt []float64) int {
	var all []sample
	var rolls []float64
	for _, c := range r.conns {
		all = append(all, c.samples...)
		rolls = append(rolls, c.rolls...)
	}
	okOps := 0
	stalls := 0
	for _, s := range all {
		if s.ok {
			okOps++
		}
		if s.kind == opAccess && s.lat > 20*time.Millisecond {
			stalls++
		}
	}
	r.m["client.stalls_over_20ms"] = float64(stalls)
	access := latenciesMs(all, opAccess)
	r.m["client.access_p999_ms"] = percentile(access, 0.999)
	r.m["client.access_max_ms"] = percentile(access, 1)
	r.m["lifecycle.cycle_roll_ms"] = median(rolls)
	r.m["lifecycle.snapshot_ms"] = median(latenciesMs(all, opSnapshot))

	// Slices cover the nominal window; a run that MinOps kept going longer
	// is measured over its first r.seconds like any other.
	window := time.Duration(r.seconds * float64(time.Second))
	slices := segment(all, 0, window, timedSegments)
	for k := range slices {
		if slices[k].Ops > 0 {
			slices[k].CPUUsPerOp = (cpuAt[k+1] - cpuAt[k]) / float64(slices[k].Ops) * 1e6
		}
		var ns, ops int64
		for _, c := range r.conns {
			ns += c.probeNs[k]
			ops += c.probeOps[k]
		}
		if ops > 0 {
			slices[k].setProbe(float64(ns) / 1e3 / float64(ops))
		}
	}
	r.segments = slices
	r.m["client.probe_us"] = segmentMedian(slices, func(s segmentStats) float64 { return s.ProbeUs })
	r.m["client.speed_ratio"] = segmentMedian(slices, func(s segmentStats) float64 { return s.Speed })
	r.m["server_cpu_us_per_op"] = reduceCPU(slices, true)
	r.m["server.cpu_us_per_op_raw"] = reduceCPU(slices, false)

	// Latency comes from the slices of the reported step — in a closed loop,
	// all of them.
	reported := slices
	if r.wl.Steps != nil {
		lo := 0.0
		for _, st := range r.wl.Steps[:r.wl.ReportStep] {
			lo += st.Share
		}
		hi := lo + r.wl.Steps[r.wl.ReportStep].Share
		n := float64(timedSegments)
		reported = slices[int(math.Ceil(lo*n-1e-9)):int(math.Floor(hi*n+1e-9))]
	}
	// Wall-clock numbers are speed-normalised in a closed loop, which keeps
	// both vCPUs busy so that everything scales with the box's speed; the
	// open loop leaves the box mostly idle, its latency is largely timer and
	// wake-up waits, and normalising it adds noise instead of removing it.
	closed := r.wl.Steps == nil
	r.m["access_p50_ms"] = reduceP50(reported, closed)
	r.m["access_p90_ms"] = reduceP90(reported, closed)
	r.m["client.access_p99_ms"] = reduceP99(reported, closed)
	r.m["client.access_p50_raw_ms"] = reduceP50(reported, false)
	r.m["client.access_p90_raw_ms"] = reduceP90(reported, false)
	r.m["client.access_p99_raw_ms"] = reduceP99(reported, false)
	if closed {
		r.m["ops_per_s"] = reduceOpsPerS(slices, true)
		r.m["client.ops_per_s_raw"] = reduceOpsPerS(slices, false)
		return okOps
	}

	// Open loop: throughput is what completed over the offered schedule —
	// the schedule sets it, not the box's speed, so it is not normalised.
	r.m["ops_per_s"] = float64(okOps) / elapsed.Seconds()
	r.m["client.ops_per_s_raw"] = r.m["ops_per_s"]
	var lags []float64
	for _, s := range all {
		lags = append(lags, float64(s.late)/float64(time.Millisecond))
	}
	sort.Float64s(lags)
	r.m["client.sched_lag_p99_ms"] = percentile(lags, 0.99)
	slo := 0.0
	for si, st := range r.wl.Steps {
		var stepSamples []sample
		failed := 0
		for _, s := range all {
			if s.step != si {
				continue
			}
			stepSamples = append(stepSamples, s)
			if !s.ok {
				failed++
			}
		}
		// A backlog that is still there when the step ends — a connection's
		// last send left later than the limit — means the rate is not held.
		var lastLate time.Duration
		for _, c := range r.conns {
			for i := len(c.samples) - 1; i >= 0; i-- {
				if c.samples[i].step == si {
					lastLate = max(lastLate, c.samples[i].late)
					break
				}
			}
		}
		lat := latenciesMs(stepSamples, opAccess)
		p50, p99 := percentile(lat, 0.50), percentile(lat, 0.99)
		switch st.Rate {
		case 500:
			r.m["client.access_p50_ms_at_500"] = p50
		case 2000:
			r.m["client.access_p50_ms_at_2000"] = p50
		}
		if failed == 0 && p99 <= sloP99Ms && lastLate < time.Duration(sloP99Ms*float64(time.Millisecond)) {
			slo = max(slo, st.Rate)
		}
	}
	r.m["client.slo_rate_per_s"] = slo
	return okOps
}

// serverMetrics fills the S rows: differences of the server's own counters
// across the timed run.
func (r *runner) serverMetrics(before, after snapshotState, okOps int) {
	d := func(name string, match ...string) float64 {
		return after.prom.sum(name, match...) - before.prom.sum(name, match...)
	}
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	ops := float64(okOps)
	const us = 1e6
	r.m["server.http_request_us"] = ratio(d("sag_http_request_seconds_sum"), d("sag_http_request_seconds_count")) * us
	r.m["server.lock_wait_us_per_op"] = d("sag_http_lock_wait_seconds_sum") / ops * us
	r.m["server.allocs_per_op"] = (after.mem.mallocs - before.mem.mallocs) / ops
	r.m["server.alloc_bytes_per_op"] = (after.mem.totalAlloc - before.mem.totalAlloc) / ops
	r.m["server.gc_cycles"] = after.mem.numGC - before.mem.numGC
	r.m["server.gc_pause_ms"] = gcPauseMs(before.mem, after.mem)
	non2xx := func(p promScrape) float64 {
		return p.sumIf("sag_http_requests_total", func(l map[string]string) bool { return l["code"] != "" && l["code"][0] != '2' })
	}
	r.m["server.non2xx_total"] = non2xx(after.prom) - non2xx(before.prom)

	r.m["admit.queue_wait_us_per_op"] = d("sag_admit_queue_wait_seconds_sum") / ops * us
	r.m["admit.queued_total"] = d("sag_admit_queued_total")
	r.m["admit.shed_total"] = d("sag_admit_shed_total")
	r.m["shard.tenants_active"] = after.prom.sum("sag_shard_tenants_active")

	stage := func(s string) float64 {
		return ratio(d("sag_engine_stage_seconds_sum", "stage="+s), d("sag_engine_stage_seconds_count", "stage="+s)) * us
	}
	r.m["history.estimate_us_server"] = stage("estimate")
	r.m["game.sse_us_server"] = stage("sse")
	r.m["signaling.stage_us_server"] = stage("signal")
	decisions := d("sag_engine_decisions_total")
	solves := d("sag_engine_lp_solves_total")
	r.m["game.lp_solves_per_decision"] = ratio(solves, decisions)
	r.m["lp.simplex_iterations_per_solve"] = ratio(d("sag_engine_simplex_iterations_total"), solves)
	r.m["lp.pivots_per_solve"] = ratio(d("sag_engine_simplex_pivots_total"), solves)
	r.m["core.decision_us_server"] = ratio(d("sag_engine_decision_seconds_sum"), d("sag_engine_decision_seconds_count")) * us
	r.m["core.commit_retries_total"] = d("sag_engine_commit_retries_total")
	r.m["core.stale_commits_total"] = d("sag_engine_stale_commits_total")
	r.m["core.coalesced_total"] = d("sag_engine_coalesced_solves_total")
	hits, misses := d("sag_engine_cache_hits_total"), d("sag_engine_cache_misses_total")
	r.m["core.cache_hit_ratio"] = ratio(hits, hits+misses)
	r.m["core.fallback_total"] = d("sag_engine_fallback_total")

	fsyncs := d("sag_wal_fsync_seconds_count")
	r.m["wal.fsync_us"] = ratio(d("sag_wal_fsync_seconds_sum"), fsyncs) * us
	r.m["wal.fsyncs_per_op"] = fsyncs / ops
	r.m["wal.appends_per_fsync"] = ratio(d("sag_wal_appends_total"), fsyncs)
	snapBytes, snapTenants := 0.0, 0.0
	for _, s := range after.prom {
		if s.name == "sag_snapshot_bytes" && s.value > 0 {
			snapBytes += s.value
			snapTenants++
		}
	}
	r.m["wal.snapshot_bytes"] = ratio(snapBytes, snapTenants)
	r.m["retain.blocked_507_total"] = d("sag_http_requests_total", "code=507")
	r.m["obs.series_total"] = float64(len(after.prom))

	// Counters that must not move, whatever else the run measured.
	for _, must := range []struct {
		what  string
		value float64
	}{
		{"sag_http_panics_total", d("sag_http_panics_total")},
		{"sag_engine_fallback_total", r.m["core.fallback_total"]},
		{"sag_admit_shed_total", r.m["admit.shed_total"]},
		{"507 responses", r.m["retain.blocked_507_total"]},
		{"non-2xx responses", r.m["server.non2xx_total"]},
	} {
		if must.value != 0 {
			r.failf("%s rose by %v during the run; it must stay 0", must.what, must.value)
		}
	}
}

// scrapeCost times GET /v1/metrics with every tenant resident.
func (r *runner) scrapeCost() {
	var ms []float64
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		if _, err := scrapeMetrics(r.admin, r.srv.base); err != nil {
			r.failf("scraping /v1/metrics: %v", err)
			return
		}
		ms = append(ms, float64(time.Since(t0))/float64(time.Millisecond))
	}
	r.m["obs.scrape_ms"] = median(ms)
}

// mutations counts the acknowledged requests that wrote a journal record.
func (r *runner) mutations() int {
	n := 0
	for _, t := range r.tenants {
		n += len(t.flagged) // first quits; repeats journal nothing
		for i, o := range t.sent {
			if t.hashes[i] == 0 {
				continue
			}
			switch o.kind {
			case opAccess, opClose, opNew:
				n++
			}
		}
	}
	return max(n, 1)
}

// collectFailures folds the connections' and tenants' books into the run's.
func (r *runner) collectFailures() {
	for _, c := range r.conns {
		r.attempted += c.attempted
		r.failed += c.failed
	}
	for _, t := range r.tenants {
		for _, f := range t.failures {
			if len(r.failures) < 16 {
				r.failures = append(r.failures, f)
			}
		}
	}
	r.m["client.failed_ratio"] = float64(r.failed) / float64(max(r.attempted, 1))
}

// replays runs the in-process passes over the recorded histories: always the
// oracle (the real handler must answer as the child did); in a traced run
// also the shadow path, untraced and traced, and the layer timings.
func (r *runner) replays() error {
	hs := historiesOf(r.tenants, r.wl.OraclePrefix)
	r.digestOps = r.wl.OraclePrefix
	all := make([]uint64, 0, len(hs)*r.wl.OraclePrefix)
	for _, h := range hs {
		r.digestOps = min(r.digestOps, len(h.hashes))
		all = append(all, h.hashes...)
	}
	r.digest = digestHashes(all, len(all))

	wd, err := buildWorld()
	if err != nil {
		return err
	}
	r.m["setup.world_s"] = wd.buildS

	// Untraced runs only need the oracle's verdict, so they skip the fsync
	// wait; a traced run times the handler and keeps the served policy, and
	// replays through the shadow path — once untraced, once traced —
	// alongside it.
	fsync := wal.FsyncNone
	if r.trace {
		fsync = wal.FsyncAlways
	}
	orc, err := newOracle(wd, r.wl, r.outDir, fsync)
	if err != nil {
		return err
	}
	defer orc.close()
	targets := []replayer{orc}
	var plain, traced *shadowReplay
	if r.trace {
		if plain, err = newShadowReplay(wd, r.wl, r.outDir, fsync, false); err != nil {
			return err
		}
		defer plain.close()
		if traced, err = newShadowReplay(wd, r.wl, r.outDir, fsync, true); err != nil {
			return err
		}
		defer traced.close()
		targets = append(targets, plain, traced)
	}
	if err := replayAll(hs, targets...); err != nil {
		r.failf("replay: %v", err)
		return nil
	}
	r.logf("oracle: %d requests replayed through the in-process handler, all answers identical (digest %s)", orc.ops, r.digest)
	if !r.trace {
		return nil
	}
	for _, v := range traced.sh.theoremViolations {
		r.failf("traced run: %s", v)
	}

	handlerP50 := median(orc.accessUs)
	r.m["server.handler_us"] = handlerP50
	r.m["server.socket_overhead_us"] = r.m["client.access_p50_raw_ms"]*1e3 - handlerP50
	layers, explained := traced.tr.summarize()
	r.m["trace.explained_ratio"] = explained
	r.m["trace.shadow_vs_handler_ratio"] = median(plain.accessUs) / handlerP50
	r.m["trace.overhead_ratio"] = median(traced.accessUs) / median(plain.accessUs)
	for _, l := range layers {
		if l.Name == "core.process" {
			r.m["core.commit_self_us"] = l.SelfUs / float64(l.Count)
		}
	}
	if ratio := r.m["trace.shadow_vs_handler_ratio"]; ratio < 0.9 || ratio > 1.1 {
		r.logf("WARN trace.shadow_vs_handler_ratio = %.3f is outside 0.9-1.1: the shadow path has drifted from handleAccess, or the handler's own wrapping (mux, timeout, recovery, metrics) is more than a tenth of this request", ratio)
	}
	tf := traceFile{
		Workload:  r.wl.Name,
		Seed:      r.seed,
		Requests:  traced.tr.req,
		Explained: explained,
		Layers:    layers,
		Counts:    traced.tr.counts,
		Spans:     traced.tr.spans,
	}
	if err := writeJSONFile(filepath.Join(r.outDir, "trace_"+r.wl.Name+".json"), tf); err != nil {
		return err
	}
	tf.Spans = nil
	if err := writeJSONFile(filepath.Join(r.outDir, "trace_summary_"+r.wl.Name+".json"), tf); err != nil {
		return err
	}
	r.printBudget(layers, traced.tr.req, handlerP50-median(plain.accessUs))
	return timeLayers(wd, r.outDir, r.m)
}

// printBudget writes the latency-budget table: where one shadow request's
// time goes, stage by stage, against the client-observed median.
func (r *runner) printBudget(layers []layerTime, requests int, wrappingUs float64) {
	// Spans are wall time as it passed, so the budget is drawn against the
	// raw median, not the speed-normalised one.
	p50us := r.m["client.access_p50_raw_ms"] * 1e3
	fmt.Fprintf(r.logw, "\nlatency budget, %s (mean self time per access over %d traced requests; client.access_p50_raw_ms = %.0f us)\n", r.wl.Name, requests, p50us)
	fmt.Fprintf(r.logw, "  %-22s %10s %9s %8s\n", "stage", "self us", "% of p50", "calls")
	for _, l := range layers {
		self := l.SelfUs / float64(requests)
		fmt.Fprintf(r.logw, "  %-22s %10.2f %8.1f%% %8.2f\n", l.Name, self, 100*self/p50us, float64(l.Count)/float64(requests))
	}
	socket := r.m["server.socket_overhead_us"]
	fmt.Fprintf(r.logw, "  %-22s %10.2f %8.1f%%  (handler p50 minus shadow p50: mux, timeout, recovery, metrics wrappers)\n", "server wrapping", wrappingUs, 100*wrappingUs/p50us)
	fmt.Fprintf(r.logw, "  %-22s %10.2f %8.1f%%  (raw p50 minus handler p50: sockets, HTTP parsing, scheduling)\n", "socket and client", socket, 100*socket/p50us)
}

func writeJSONFile(path string, v any) error {
	raw, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}
