package main

import (
	"math"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ p, want float64 }{
		{0.5, 5}, {0.9, 9}, {0.99, 10}, {1, 10}, {0.01, 1}, {0.1, 1}, {0.11, 2},
	} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(p=%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
}

func TestMedian(t *testing.T) {
	in := []float64{9, 1, 5}
	if got := median(in); got != 5 {
		t.Errorf("odd median = %v, want 5", got)
	}
	if in[0] != 9 {
		t.Error("median reordered its argument")
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v, want 2.5", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median of nothing = %v", got)
	}
}

// One slice of eight stalls: the whole-run mean throughput drops by a
// sixteenth, the median of the slices does not move at all.
func TestSegmentMedianShrugsOffOneStalledSlice(t *testing.T) {
	const n = 8
	slice := 100 * time.Millisecond
	var samples []sample
	for seg := 0; seg < n; seg++ {
		count := 100
		if seg == 3 {
			count = 50 // the hiccup
		}
		for i := 0; i < count; i++ {
			lat := time.Millisecond
			if seg == 3 {
				lat = 2 * time.Millisecond
			}
			end := time.Duration(seg)*slice + time.Duration(i)*slice/time.Duration(count)
			samples = append(samples, sample{kind: opAccess, ok: true, end: end, lat: lat})
		}
	}
	segs := segment(samples, 0, n*slice, n)
	if segs[3].Ops != 50 || segs[0].Ops != 100 {
		t.Fatalf("slice counts = %d, %d; want 50, 100", segs[3].Ops, segs[0].Ops)
	}
	if got := segmentMedian(segs, func(s segmentStats) float64 { return s.OpsPerS }); got != 1000 {
		t.Errorf("median slice throughput = %v, want 1000", got)
	}
	if got := segmentMedian(segs, func(s segmentStats) float64 { return s.P50ms }); got != 1 {
		t.Errorf("median slice p50 = %v ms, want 1", got)
	}
	mean := float64(len(samples)) / (n * slice).Seconds()
	if mean >= 1000 {
		t.Errorf("whole-run mean %v should show the stall", mean)
	}
}

func TestSegmentSkipsFailuresOtherKindsAndEmptySlices(t *testing.T) {
	samples := []sample{
		{kind: opAccess, ok: true, end: 10 * time.Millisecond, lat: time.Millisecond},
		{kind: opAccess, ok: false, end: 20 * time.Millisecond, lat: 50 * time.Millisecond},
		{kind: opClose, ok: true, end: 30 * time.Millisecond, lat: 9 * time.Millisecond},
		{kind: opAccess, ok: true, end: 2 * time.Second, lat: time.Millisecond}, // past the window
	}
	segs := segment(samples, 0, time.Second, 2)
	if segs[0].Ops != 2 || segs[0].Accesses != 1 || segs[0].P99ms != 1 {
		t.Errorf("first slice = %+v; want 2 ops, 1 access, p99 1 ms", segs[0])
	}
	if segs[1].Ops != 0 {
		t.Errorf("second slice = %+v; want empty", segs[1])
	}
	if got := segmentMedian(segs, func(s segmentStats) float64 { return s.P50ms }); got != 1 {
		t.Errorf("an empty slice must not count as a 0 ms slice: median = %v", got)
	}
}

// Values checked against Python: statistics.quantiles(v, n=4).
func TestQuartilesMatchPythonExclusiveMethod(t *testing.T) {
	for _, c := range []struct {
		in     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{10, 1, 7, 3}, 1.5, 9.25},
		{[]float64{5, 6}, 4.75, 6.25},
		{[]float64{2, 4, 4, 5, 7, 9, 11}, 4, 9},
	} {
		q1, q3 := quartiles(c.in)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.in, q1, q3, c.q1, c.q3)
		}
	}
}

func TestVerdict(t *testing.T) {
	lower := metricDef{Name: "access_p50_ms", Better: "lower"}
	higher := metricDef{Name: "ops_per_s", Better: "higher"}
	steady := []float64{100, 101, 99, 100, 100}
	for _, c := range []struct {
		name string
		def  metricDef
		a, b []float64
		want string
	}{
		{"same", lower, steady, steady, "unchanged"},
		{"slower latency", lower, steady, []float64{120, 121, 119, 120, 120}, "regressed"},
		{"faster latency", lower, steady, []float64{80, 81, 79, 80, 80}, "improved"},
		{"less throughput", higher, steady, []float64{80, 81, 79, 80, 80}, "regressed"},
		{"more throughput", higher, steady, []float64{120, 121, 119, 120, 120}, "improved"},
		{"within bound", lower, steady, []float64{105, 106, 104, 105, 105}, "unchanged"},
		{"too noisy to say", lower, []float64{60, 100, 140, 90, 110}, []float64{120, 121, 119, 120, 120}, "unresolved"},
	} {
		if _, got := verdict(c.def, 0.10, c.a, c.b); got != c.want {
			t.Errorf("%s: verdict = %s, want %s", c.name, got, c.want)
		}
	}
}

// Two slices, the second during a spell in which the box ran at half speed:
// raw, it shows half the throughput and twice the latency and CPU; brought
// to the reference speed, it agrees with the first.
func TestReductionsNormaliseEachSliceByItsSpeed(t *testing.T) {
	fast := segmentStats{Ops: 1000, OpsPerS: 1000, Accesses: 1000, P50ms: 1, P99ms: 3, CPUUsPerOp: 200, lat: []float64{1, 1, 3}}
	slow := segmentStats{Ops: 500, OpsPerS: 500, Accesses: 500, P50ms: 2, P99ms: 6, CPUUsPerOp: 400, lat: []float64{2, 2, 6}}
	fast.setProbe(referenceProbeUs)
	slow.setProbe(2 * referenceProbeUs)
	if fast.Speed != 1 || slow.Speed != 0.5 {
		t.Fatalf("speeds = %v, %v; want 1, 0.5", fast.Speed, slow.Speed)
	}
	segs := []segmentStats{fast, slow}
	for _, c := range []struct {
		name      string
		raw, norm float64
		wantRaw   float64
		wantNorm  float64
	}{
		{"ops_per_s", reduceOpsPerS(segs, false), reduceOpsPerS(segs, true), 750, 1000},
		{"p50", reduceP50(segs, false), reduceP50(segs, true), 1.5, 1},
		{"cpu", reduceCPU(segs, false), reduceCPU(segs, true), 300, 200},
	} {
		if c.raw != c.wantRaw || c.norm != c.wantNorm {
			t.Errorf("%s: raw %v normalised %v, want %v and %v", c.name, c.raw, c.norm, c.wantRaw, c.wantNorm)
		}
	}
	// A slice that had no probe keeps speed 1: normalising must not zero it.
	bare := segment([]sample{{kind: opAccess, ok: true, end: time.Millisecond, lat: time.Millisecond}}, 0, time.Second, 1)
	if got := reduceP50(bare, true); got != 1 {
		t.Errorf("a probe-less slice normalised to %v ms, want its raw 1 ms", got)
	}
}

// Eight quiet slices and two that caught a burst: the tail is that of the
// quiet ones, whichever slices the burst happened to land in.
func TestReduceP99DropsTheWorstQuarterOfSlices(t *testing.T) {
	quiet := func() segmentStats {
		lat := make([]float64, 100)
		for i := range lat {
			lat[i] = 1 + float64(i)/100 // 1.00 .. 1.99
		}
		return segmentStats{Accesses: 100, P99ms: 1.98, Speed: 1, lat: lat}
	}
	burst := func() segmentStats {
		s := quiet()
		for i := 80; i < 100; i++ {
			s.lat[i] = 50
		}
		s.P99ms = 50
		return s
	}
	segs := []segmentStats{quiet(), burst(), quiet(), quiet(), quiet(), quiet(), burst(), quiet(), quiet(), quiet()}
	got := reduceP99(segs, false)
	if got < 1.9 || got > 2 {
		t.Errorf("p99 = %v, want the quiet slices' ~1.98", got)
	}
	// With bursts in half the slices they are no longer the exception, and
	// the tail must show them.
	for i := range segs[:5] {
		segs[i] = burst()
	}
	if got := reduceP99(segs, false); got != 50 {
		t.Errorf("p99 = %v with half the slices disturbed, want 50", got)
	}
	if got := reduceP99(nil, true); got != 0 {
		t.Errorf("p99 of nothing = %v", got)
	}
}
