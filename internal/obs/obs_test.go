package obs

import (
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("reqs_total", "requests")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	// Same name+labels yields the same series.
	if r.Counter("reqs_total", "requests") != c {
		t.Fatal("counter lookup is not stable")
	}

	g := r.Gauge("budget", "remaining budget")
	g.Set(50)
	g.Add(-12.5)
	if got := g.Value(); got != 37.5 {
		t.Fatalf("gauge = %g, want 37.5", got)
	}
}

func TestLabelCanonicalization(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("x_total", "", L("b", "2"), L("a", "1"))
	b := r.Counter("x_total", "", L("a", "1"), L("b", "2"))
	if a != b {
		t.Fatal("label order must not distinguish series")
	}
	a.Inc()
	snap := r.Snapshot()
	if got := snap.Counters[`x_total{a="1",b="2"}`]; got != 1 {
		t.Fatalf("snapshot lookup via Key failed: %+v", snap.Counters)
	}
}

func TestHistogramBucketsAndExport(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_seconds", "latency", []float64{0.01, 0.1, 1})
	for _, v := range []float64{0.005, 0.05, 0.5, 5, math.NaN()} {
		h.Observe(v)
	}
	if h.Count() != 4 {
		t.Fatalf("count = %d, want 4 (NaN dropped)", h.Count())
	}
	if math.Abs(h.Sum()-5.555) > 1e-12 {
		t.Fatalf("sum = %g, want 5.555", h.Sum())
	}

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# TYPE lat_seconds histogram",
		`lat_seconds_bucket{le="0.01"} 1`,
		`lat_seconds_bucket{le="0.1"} 2`,
		`lat_seconds_bucket{le="1"} 3`,
		`lat_seconds_bucket{le="+Inf"} 4`,
		"lat_seconds_sum 5.555",
		"lat_seconds_count 4",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("export missing %q:\n%s", want, out)
		}
	}
}

func TestHistogramSnapshotCumulative(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h", "", []float64{1, 2})
	h.Observe(0.5)
	h.Observe(1.5)
	h.Observe(99)
	hd, ok := r.Snapshot().Histograms["h"]
	if !ok {
		t.Fatal("histogram missing from snapshot")
	}
	wantCum := []uint64{1, 2, 3}
	for i, b := range hd.Buckets {
		if b.Count != wantCum[i] {
			t.Fatalf("bucket %d cumulative = %d, want %d", i, b.Count, wantCum[i])
		}
	}
	if !math.IsInf(hd.Buckets[2].UpperBound, 1) {
		t.Fatal("last bucket must be +Inf")
	}
}

func TestLabeledExportSortedAndEscaped(t *testing.T) {
	r := NewRegistry()
	r.Counter("req_total", "reqs", L("route", "/v1/access"), L("code", "200")).Inc()
	r.Counter("req_total", "reqs", L("route", "/v1/access"), L("code", "500")).Add(2)
	r.Gauge("g", "", L("weird", "a\"b\\c\nd")).Set(1)

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	i200 := strings.Index(out, `req_total{code="200",route="/v1/access"} 1`)
	i500 := strings.Index(out, `req_total{code="500",route="/v1/access"} 2`)
	if i200 < 0 || i500 < 0 || i200 > i500 {
		t.Fatalf("labeled series missing or unsorted:\n%s", out)
	}
	if !strings.Contains(out, `g{weird="a\"b\\c\nd"} 1`) {
		t.Fatalf("label escaping wrong:\n%s", out)
	}
}

func TestNilRegistryAndInstrumentsAreNoOps(t *testing.T) {
	var r *Registry
	c := r.Counter("c", "")
	g := r.Gauge("g", "")
	h := r.Histogram("h", "", []float64{1})
	if c != nil || g != nil || h != nil {
		t.Fatal("nil registry must hand out nil instruments")
	}
	// None of these may panic.
	c.Inc()
	c.Add(3)
	g.Set(1)
	g.Add(1)
	h.Observe(1)
	h.ObserveSince(time.Now())
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Fatal("nil instruments must read as zero")
	}
	if h.Enabled() {
		t.Fatal("nil histogram reports enabled")
	}
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil || sb.Len() != 0 {
		t.Fatalf("nil registry export: err=%v out=%q", err, sb.String())
	}
	snap := r.Snapshot()
	if snap.Counters == nil || len(snap.Counters) != 0 {
		t.Fatal("nil registry snapshot must be empty and non-nil")
	}
}

func TestKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("m", "")
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on kind mismatch")
		}
	}()
	r.Gauge("m", "")
}

// TestConcurrentInstruments is the registry's race-detector canary: get-or-
// create races against reads, writes race against the exporter and
// snapshots.
func TestConcurrentInstruments(t *testing.T) {
	r := NewRegistry()
	const workers, iters = 8, 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				r.Counter("c_total", "", L("w", string(rune('a'+w%4)))).Inc()
				r.Gauge("g", "").Add(1)
				r.Histogram("h_seconds", "", DefTimeBuckets).Observe(float64(i) * 1e-4)
				if i%100 == 0 {
					var sb strings.Builder
					_ = r.WritePrometheus(&sb)
					_ = r.Snapshot()
				}
			}
		}(w)
	}
	wg.Wait()

	snap := r.Snapshot()
	var total uint64
	for k, v := range snap.Counters {
		if strings.HasPrefix(k, "c_total") {
			total += v
		}
	}
	if total != workers*iters {
		t.Fatalf("lost counter increments: %d, want %d", total, workers*iters)
	}
	if got := snap.Gauges["g"]; got != workers*iters {
		t.Fatalf("gauge = %g, want %d", got, workers*iters)
	}
	if hd := snap.Histograms["h_seconds"]; hd.Count != workers*iters {
		t.Fatalf("histogram count = %d, want %d", hd.Count, workers*iters)
	}
}

func TestBucketHelpers(t *testing.T) {
	exp := ExponentialBuckets(1, 2, 4)
	if exp[3] != 8 {
		t.Fatalf("exponential buckets %v", exp)
	}
}
