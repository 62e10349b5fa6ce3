// Command sagload drives concurrent /v1/access traffic at a SAG server and
// reports decision throughput and latency percentiles. It exists to measure
// the serving path under the load shape the paper's deployment implies —
// many EMR front ends posting accesses at once: one tenant's decisions run
// one at a time, different tenants' overlap.
//
// Usage:
//
//	sagload -url http://localhost:8080 -workers 8 -duration 10s
//	sagload -self -workers 8 -duration 5s   # spin an in-process server
//
// The -overload arm drives the box past capacity on purpose: -workers
// unpaced clients flood a single greedy tenant while -polite-tenants paced
// clients each drive their own tenant, and the report shows whether
// admission control kept the polite tenants' goodput intact while shedding
// the greedy one with computed Retry-After hints:
//
//	sagload -self -overload -workers 32 -polite-tenants 3 -polite-rate 50 \
//	        -max-inflight 4 -queue-depth 8 -duration 5s
//
// Every client is closed-loop, so the flood must outnumber the places it can
// occupy: with -self a shape where -workers + -polite-tenants fits inside
// -max-inflight + -queue-depth is refused up front, and a run in which the
// greedy tenant was never shed exits non-zero.
//
// Each worker is pinned to one planted alert type: worker w posts the pair
// (employee+stride·(w mod types), patient+stride·(w mod types)). The
// defaults match sagserver's world (first planted pair 400/2000, 120 pairs
// per kind); point -employee/-patient/-stride elsewhere for other worlds.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"github.com/auditgames/sag/internal/admit"
	"github.com/auditgames/sag/internal/alerts"
	"github.com/auditgames/sag/internal/core"
	"github.com/auditgames/sag/internal/emr"
	"github.com/auditgames/sag/internal/server"
	"github.com/auditgames/sag/internal/sim"
)

func main() {
	if err := run(); err != nil {
		log.Fatal("sagload: ", err)
	}
}

func run() error {
	var (
		url            = flag.String("url", "http://localhost:8080", "target server base URL")
		self           = flag.Bool("self", false, "ignore -url and load an in-process server over a small synthetic world")
		workers        = flag.Int("workers", 8, "concurrent clients")
		duration       = flag.Duration("duration", 10*time.Second, "how long to drive load")
		employee       = flag.Int("employee", 400, "employee ID of the first planted pair")
		patient        = flag.Int("patient", 2000, "patient ID of the first planted pair")
		stride         = flag.Int("stride", 120, "ID distance between planted pairs of consecutive kinds (the server's pairs-per-kind)")
		types          = flag.Int("types", 7, "number of planted alert types to cycle workers across")
		budget         = flag.Float64("budget", 1e9, "audit budget for the in-process server (-self)")
		tenants        = flag.Int("tenants", 0, "fan workers out across N tenants (load-0..load-N-1); 0 = default tenant only")
		retryTransient = flag.Bool("retry-transient", true, "retry transient dial/reset errors with capped exponential backoff instead of counting them as failures (a restarting or failing-over server is not an error)")

		overload      = flag.Bool("overload", false, "overload arm: -workers unpaced clients flood one greedy tenant while -polite-tenants paced clients each drive their own; reports per-tenant goodput, shed ratio, and Retry-After spread")
		politeTenants = flag.Int("polite-tenants", 3, "paced polite tenants in the -overload arm")
		politeRate    = flag.Float64("polite-rate", 50, "per-polite-tenant request rate in req/s in the -overload arm")

		admitRate   = flag.Float64("rate", 0, "with -self: per-tenant admission rate in req/s (0 disables rate limiting)")
		admitBurst  = flag.Float64("burst", 0, "with -self: per-tenant token-bucket depth (0 = max(1, rate))")
		maxInflight = flag.Int("max-inflight", 0, "with -self: box-wide cap on concurrently admitted mutations (0 = uncapped)")
		queueDepth  = flag.Int("queue-depth", 0, "with -self: box-wide admission queue bound (0 = no queue)")
	)
	flag.Parse()

	residentTenants := *tenants
	if *overload {
		residentTenants = *politeTenants + 1
	}
	base := *url
	if *self {
		adm := admit.Config{Rate: *admitRate, Burst: *admitBurst, MaxInflight: *maxInflight, QueueDepth: *queueDepth}
		if *overload {
			if err := overloadCanShed(*workers, *politeTenants, adm); err != nil {
				return err
			}
		}
		ts, bgE, bgP, err := selfServer(*budget, residentTenants, adm)
		if err != nil {
			return err
		}
		defer ts.Close()
		base = ts.URL
		*employee, *patient, *stride = bgE, bgP, 3
		log.Printf("in-process server at %s (planted pairs from %d/%d, stride 3)", base, bgE, bgP)
		if adm.Enabled() {
			log.Printf("admission control on: rate=%g burst=%g max-inflight=%d queue-depth=%d", adm.Rate, adm.Burst, adm.MaxInflight, adm.QueueDepth)
		}
	}

	if *overload {
		body, err := json.Marshal(server.AccessRequest{EmployeeID: *employee, PatientID: *patient})
		if err != nil {
			return err
		}
		return runOverload(base, body, *workers, *politeTenants, *politeRate, *duration)
	}

	bodies := make([][]byte, *types)
	for k := range bodies {
		b, err := json.Marshal(server.AccessRequest{
			EmployeeID: *employee + *stride*k,
			PatientID:  *patient + *stride*k,
		})
		if err != nil {
			return err
		}
		bodies[k] = b
	}

	type workerStats struct {
		tenant        string
		lat           []time.Duration
		alerts, warns int64
		errs, non200  int64
		retries       int64
	}
	stats := make([]workerStats, *workers)
	var stop atomic.Bool
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < *workers; w++ {
		if *tenants > 0 {
			stats[w].tenant = fmt.Sprintf("load-%d", w%*tenants)
		}
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			st := &stats[w]
			body := bodies[w%*types]
			client := &http.Client{Timeout: 30 * time.Second}
			attempt := 0
			for !stop.Load() {
				t0 := time.Now()
				req, err := http.NewRequest(http.MethodPost, base+"/v1/access", bytes.NewReader(body))
				if err != nil {
					return
				}
				req.Header.Set("Content-Type", "application/json")
				if st.tenant != "" {
					req.Header.Set(server.TenantHeader, st.tenant)
				}
				resp, err := client.Do(req)
				if err != nil {
					// A refused dial or reset connection usually means the
					// server is restarting (or a standby is being promoted):
					// back off and retry instead of charging an error.
					if *retryTransient && transientErr(err) {
						st.retries++
						attempt++
						sleepInterruptible(backoffDelay(attempt), &stop)
						continue
					}
					st.errs++
					continue
				}
				if *retryTransient && (resp.StatusCode == http.StatusServiceUnavailable ||
					resp.StatusCode == http.StatusInsufficientStorage) {
					// An overloaded (503) or disk-pressured (507) server said
					// when to come back; honor its hint instead of charging a
					// failure or hammering it on our own schedule.
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					hint, ok := serverRetryHint(resp.Header)
					if !ok {
						attempt++
						hint = backoffDelay(attempt)
					}
					st.retries++
					sleepInterruptible(hint, &stop)
					continue
				}
				attempt = 0
				var out server.AccessResponse
				decErr := json.NewDecoder(resp.Body).Decode(&out)
				resp.Body.Close()
				st.lat = append(st.lat, time.Since(t0))
				if resp.StatusCode != http.StatusOK || decErr != nil {
					st.non200++
					continue
				}
				if out.Alert {
					st.alerts++
				}
				if out.Warn {
					st.warns++
				}
			}
		}(w)
	}
	time.Sleep(*duration)
	stop.Store(true)
	wg.Wait()
	elapsed := time.Since(start)

	var all []time.Duration
	var alerts, warns, errs, non200, retries int64
	perTenant := map[string][]time.Duration{}
	for i := range stats {
		all = append(all, stats[i].lat...)
		perTenant[stats[i].tenant] = append(perTenant[stats[i].tenant], stats[i].lat...)
		alerts += stats[i].alerts
		warns += stats[i].warns
		errs += stats[i].errs
		non200 += stats[i].non200
		retries += stats[i].retries
	}
	if len(all) == 0 {
		return fmt.Errorf("no requests completed (%d transport errors)", errs)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })

	fmt.Fprintf(os.Stdout, "workers        %d\n", *workers)
	if *tenants > 0 {
		fmt.Fprintf(os.Stdout, "tenants        %d\n", *tenants)
	}
	fmt.Fprintf(os.Stdout, "duration       %v\n", elapsed.Round(time.Millisecond))
	fmt.Fprintf(os.Stdout, "requests       %d (%d alerts, %d warned, %d non-200, %d transport errors, %d transient retries)\n",
		len(all), alerts, warns, non200, errs, retries)
	fmt.Fprintf(os.Stdout, "throughput     %.1f req/s\n", float64(len(all))/elapsed.Seconds())
	fmt.Fprintf(os.Stdout, "latency p50    %v\n", pct(all, 0.50).Round(time.Microsecond))
	fmt.Fprintf(os.Stdout, "latency p90    %v\n", pct(all, 0.90).Round(time.Microsecond))
	fmt.Fprintf(os.Stdout, "latency p99    %v\n", pct(all, 0.99).Round(time.Microsecond))
	fmt.Fprintf(os.Stdout, "latency max    %v\n", all[len(all)-1].Round(time.Microsecond))

	if *tenants > 0 {
		ids := make([]string, 0, len(perTenant))
		for id := range perTenant {
			ids = append(ids, id)
		}
		sort.Strings(ids)
		fmt.Fprintln(os.Stdout, "per-tenant latency:")
		for _, id := range ids {
			lat := perTenant[id]
			if len(lat) == 0 {
				continue
			}
			sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
			fmt.Fprintf(os.Stdout, "  %-12s %8d req  %8.1f req/s  p50 %-10v p90 %-10v p99 %-10v\n",
				id, len(lat), float64(len(lat))/elapsed.Seconds(),
				pct(lat, 0.50).Round(time.Microsecond),
				pct(lat, 0.90).Round(time.Microsecond),
				pct(lat, 0.99).Round(time.Microsecond))
		}
	}
	return nil
}

// tenantResult accumulates one overload client's view of one tenant.
type tenantResult struct {
	tenant     string
	attempted  int64
	ok         int64
	shed       int64 // 503s
	other      int64 // non-200, non-503
	errs       int64
	lat        []time.Duration // successful requests only
	retryAfter map[string]int  // distinct Retry-After hints on sheds
}

// overloadShot fires one access for a tenant and files the outcome.
func overloadShot(client *http.Client, base string, body []byte, st *tenantResult) {
	st.attempted++
	t0 := time.Now()
	req, err := http.NewRequest(http.MethodPost, base+"/v1/access", bytes.NewReader(body))
	if err != nil {
		st.errs++
		return
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(server.TenantHeader, st.tenant)
	resp, err := client.Do(req)
	if err != nil {
		st.errs++
		return
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
		st.ok++
		st.lat = append(st.lat, time.Since(t0))
	case http.StatusServiceUnavailable, http.StatusInsufficientStorage:
		st.shed++
		if st.retryAfter == nil {
			st.retryAfter = map[string]int{}
		}
		// Report the precise hint when the server sent one: Retry-After is
		// whole seconds by spec, so the computed sub-second spread is only
		// visible in the millisecond header.
		hint := resp.Header.Get("Retry-After")
		if ms := resp.Header.Get(server.RetryAfterMsHeader); ms != "" {
			hint = ms + "ms"
		}
		st.retryAfter[hint]++
	default:
		st.other++
	}
}

// overloadCanShed refuses an -overload shape against the in-process server
// that cannot shed by arithmetic. Every client is closed-loop (one request
// outstanding), so without a rate limit at most workers+politeN requests
// exist at once; if they all fit in the slots plus the queue nothing is ever
// turned away and the rehearsal proves nothing.
func overloadCanShed(workers, politeN int, adm admit.Config) error {
	if adm.Rate > 0 {
		return nil
	}
	if adm.MaxInflight <= 0 {
		return errors.New("-self -overload has nothing to shed with: set -max-inflight (and -queue-depth) or -rate")
	}
	if clients, places := workers+politeN, adm.MaxInflight+adm.QueueDepth; clients <= places {
		return fmt.Errorf("-overload cannot shed: %d closed-loop clients (-workers %d + -polite-tenants %d) fit in %d places (-max-inflight %d + -queue-depth %d); raise -workers above %d",
			clients, workers, politeN, places, adm.MaxInflight, adm.QueueDepth, places-politeN)
	}
	return nil
}

// runOverload is the -overload arm: `workers` unpaced clients flood the
// "greedy" tenant while politeN paced clients each drive their own tenant at
// politeRate req/s. The report is per-tenant goodput — the number the
// admission layer exists to protect — plus the greedy tenant's shed ratio
// and the spread of computed Retry-After hints. A run that never shed the
// greedy tenant is an error: it rehearsed nothing.
func runOverload(base string, body []byte, workers, politeN int, politeRate float64, dur time.Duration) error {
	if politeN < 1 {
		return errors.New("-overload needs -polite-tenants >= 1")
	}
	if politeRate <= 0 {
		return errors.New("-overload needs -polite-rate > 0")
	}
	greedy := make([]tenantResult, workers)
	polite := make([]tenantResult, politeN)
	var stop atomic.Bool
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < workers; w++ {
		greedy[w].tenant = "greedy"
		wg.Add(1)
		go func(st *tenantResult) {
			defer wg.Done()
			client := &http.Client{Timeout: 30 * time.Second}
			for !stop.Load() {
				overloadShot(client, base, body, st)
			}
		}(&greedy[w])
	}
	for p := 0; p < politeN; p++ {
		polite[p].tenant = fmt.Sprintf("polite-%d", p)
		wg.Add(1)
		go func(st *tenantResult) {
			defer wg.Done()
			client := &http.Client{Timeout: 30 * time.Second}
			tick := time.NewTicker(time.Duration(float64(time.Second) / politeRate))
			defer tick.Stop()
			for !stop.Load() {
				overloadShot(client, base, body, st)
				<-tick.C
			}
		}(&polite[p])
	}
	time.Sleep(dur)
	stop.Store(true)
	wg.Wait()
	elapsed := time.Since(start)

	var g tenantResult
	g.tenant = "greedy"
	g.retryAfter = map[string]int{}
	for i := range greedy {
		g.attempted += greedy[i].attempted
		g.ok += greedy[i].ok
		g.shed += greedy[i].shed
		g.other += greedy[i].other
		g.errs += greedy[i].errs
		g.lat = append(g.lat, greedy[i].lat...)
		for k, v := range greedy[i].retryAfter {
			g.retryAfter[k] += v
		}
	}

	fmt.Fprintf(os.Stdout, "overload arm   %d greedy clients vs %d polite tenants @ %g req/s each, %v\n",
		workers, politeN, politeRate, elapsed.Round(time.Millisecond))
	printTenant := func(st *tenantResult) {
		sort.Slice(st.lat, func(i, j int) bool { return st.lat[i] < st.lat[j] })
		line := fmt.Sprintf("  %-12s %8d sent  %8.1f ok/s  shed %5.1f%%", st.tenant, st.attempted,
			float64(st.ok)/elapsed.Seconds(), 100*float64(st.shed)/float64(max(st.attempted, 1)))
		if len(st.lat) > 0 {
			line += fmt.Sprintf("  p50 %-10v p99 %-10v", pct(st.lat, 0.50).Round(time.Microsecond),
				pct(st.lat, 0.99).Round(time.Microsecond))
		}
		if st.other+st.errs > 0 {
			line += fmt.Sprintf("  (%d other non-200, %d transport errors)", st.other, st.errs)
		}
		fmt.Fprintln(os.Stdout, line)
	}
	printTenant(&g)
	for p := range polite {
		printTenant(&polite[p])
	}
	if len(g.retryAfter) > 0 {
		hints := make([]string, 0, len(g.retryAfter))
		for k := range g.retryAfter {
			hints = append(hints, k)
		}
		sort.Strings(hints)
		if len(hints) > 8 {
			hints = hints[:8]
		}
		fmt.Fprintf(os.Stdout, "greedy Retry-After hints: %d distinct, e.g. %v\n", len(g.retryAfter), hints)
	}
	if g.shed == 0 {
		return errors.New("greedy tenant was never shed — target has no admission control, or load is under capacity")
	}
	return nil
}

// pct reads the p-quantile of an ascending-sorted latency slice.
func pct(sorted []time.Duration, p float64) time.Duration {
	return sorted[int(p*float64(len(sorted)-1))]
}

// transientErr reports whether a transport error is worth retrying: the
// kinds a restarting or failing-over server produces (refused dials, reset
// or half-closed connections), not protocol-level failures.
func transientErr(err error) bool {
	if errors.Is(err, syscall.ECONNREFUSED) ||
		errors.Is(err, syscall.ECONNRESET) ||
		errors.Is(err, syscall.EPIPE) ||
		errors.Is(err, io.EOF) ||
		errors.Is(err, io.ErrUnexpectedEOF) {
		return true
	}
	var oe *net.OpError
	return errors.As(err, &oe) && (oe.Op == "dial" || oe.Op == "read")
}

// serverRetryHint reads a backpressure response's backoff hint, preferring
// the precise X-SAG-Retry-After-Ms header over Retry-After: the latter is
// RFC 9110 whole delta-seconds, so a 250ms hint reads as "1" there — 4× the
// wait the server actually asked for.
func serverRetryHint(h http.Header) (time.Duration, bool) {
	if ms := h.Get(server.RetryAfterMsHeader); ms != "" {
		if v, err := strconv.ParseInt(ms, 10, 64); err == nil && v > 0 {
			return time.Duration(v) * time.Millisecond, true
		}
	}
	if sec := h.Get("Retry-After"); sec != "" {
		if v, err := strconv.ParseInt(sec, 10, 64); err == nil && v > 0 {
			return time.Duration(v) * time.Second, true
		}
	}
	return 0, false
}

// backoffDelay is the capped exponential backoff (with jitter) before retry
// number attempt (1-based): 50ms, 100ms, ... capped at 2s, each +0–50%.
func backoffDelay(attempt int) time.Duration {
	const base, maxDelay = 50 * time.Millisecond, 2 * time.Second
	d := base << min(attempt-1, 10)
	if d > maxDelay || d <= 0 {
		d = maxDelay
	}
	return d + time.Duration(rand.Int63n(int64(d)/2+1))
}

// sleepInterruptible sleeps for d but wakes early once stop flips, so
// backed-off workers do not hold up shutdown.
func sleepInterruptible(d time.Duration, stop *atomic.Bool) {
	const step = 25 * time.Millisecond
	for d > 0 && !stop.Load() {
		s := min(d, step)
		time.Sleep(s)
		d -= s
	}
}

// maxTenants sizes the in-process server's tenant cap for an N-tenant
// fan-out: 0 keeps the shard default, which already covers small N.
func maxTenants(tenants int) int {
	if tenants > 0 {
		return tenants + 1 // the fan-out plus the default tenant
	}
	return 0
}

// selfServer builds a small in-process SAG server (fixed-rate estimator) so
// sagload can run without a sagserver target.
// tenants raises the resident-tenant cap when the fan-out needs more than
// the shard default; adm wires the admission-control knobs through.
func selfServer(budget float64, tenants int, adm admit.Config) (*httptest.Server, int, int, error) {
	world, err := emr.NewWorld(emr.WorldConfig{Seed: 5, Employees: 30, Patients: 100, Departments: 4})
	if err != nil {
		return nil, 0, 0, err
	}
	bgE, bgP := world.NumEmployees(), world.NumPatients()
	if _, err := emr.NewGenerator(world, emr.GeneratorConfig{Seed: 5, PairsPerKind: 3, BackgroundPerDay: 1}); err != nil {
		return nil, 0, 0, err
	}
	inst, err := sim.Table1Instance(sim.AllTable1TypeIDs())
	if err != nil {
		return nil, 0, 0, err
	}
	rates := []float64{196.57, 29.02, 140.46, 10.84, 25.43, 15.14, 43.27}
	srv, err := server.New(server.Config{
		World:    world,
		Taxonomy: alerts.NewTable1Taxonomy(),
		TypeIDs:  sim.AllTable1TypeIDs(),
		Instance: inst,
		Budget:   budget,
		Estimator: core.EstimatorFunc(func(time.Duration) ([]float64, error) {
			out := make([]float64, len(rates))
			copy(out, rates)
			return out, nil
		}),
		Seed:       1,
		Clock:      func() time.Duration { return 9 * time.Hour },
		MaxTenants: maxTenants(tenants),
		Admission:  adm,
	})
	if err != nil {
		return nil, 0, 0, err
	}
	return httptest.NewServer(srv.Handler()), bgE, bgP, nil
}
