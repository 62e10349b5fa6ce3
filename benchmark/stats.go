package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the nearest-rank p-quantile (0 < p ≤ 1) of xs, which
// must be sorted ascending. An empty slice yields 0.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p*float64(len(sorted)))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}

// median returns the median of xs (mean of the two middle values for an even
// count) without reordering the caller's slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// sample is one completed request as the generator saw it.
type sample struct {
	kind opKind
	ok   bool
	end  time.Duration // completion, as an offset from the run start
	lat  time.Duration // completion minus send time (closed loop) or due time (open loop)
	late time.Duration // open loop only: send time minus due time
	step int           // open loop only: the rate step the request belongs to
}

// referenceProbeUs is the speed probe's cost per answer at the reference
// box speed every time-based end-to-end number is reported at (see
// speedProbe and the README's section on speed-normalised timings): this
// sandbox in its faster minutes.
const referenceProbeUs = 7.5

// segmentStats is what one time slice of a run yields. The raw fields are
// as measured; Speed says how fast the box ran during the slice relative to
// the reference, and the reductions below scale by it.
type segmentStats struct {
	Ops        int     `json:"ops"`       // successful requests of any kind completed in the slice
	OpsPerS    float64 `json:"ops_per_s"` // ops over the slice length
	Accesses   int     `json:"accesses"`
	P50ms      float64 `json:"p50_ms"` // POST /v1/access only
	P90ms      float64 `json:"p90_ms"`
	P99ms      float64 `json:"p99_ms"`
	CPUUsPerOp float64 `json:"cpu_us_per_op"` // server CPU over the slice per successful request
	ProbeUs    float64 `json:"probe_us"`      // speed probe CPU per answer
	Speed      float64 `json:"speed"`         // referenceProbeUs / ProbeUs; 1 when there was no probe

	lat []float64 // the slice's access latencies in ms, sorted
}

// segment cuts [from, to) into n equal time slices by completion time and
// summarises each. A timing metric is then reduced over the slices, so one
// stalled slice (a host hiccup, a GC pile-up) moves the reported number far
// less than it moves a whole-run mean.
func segment(samples []sample, from, to time.Duration, n int) []segmentStats {
	out := make([]segmentStats, n)
	width := (to - from) / time.Duration(n)
	if width <= 0 {
		return out
	}
	for _, s := range samples {
		if !s.ok || s.end < from || s.end >= to {
			continue
		}
		i := min(int((s.end-from)/width), n-1)
		out[i].Ops++
		if s.kind == opAccess {
			out[i].lat = append(out[i].lat, float64(s.lat)/float64(time.Millisecond))
		}
	}
	for i := range out {
		sort.Float64s(out[i].lat)
		out[i].OpsPerS = float64(out[i].Ops) / width.Seconds()
		out[i].Accesses = len(out[i].lat)
		out[i].P50ms = percentile(out[i].lat, 0.50)
		out[i].P90ms = percentile(out[i].lat, 0.90)
		out[i].P99ms = percentile(out[i].lat, 0.99)
		out[i].Speed = 1
	}
	return out
}

// setProbe records a slice's probe cost and the speed it implies.
func (s *segmentStats) setProbe(probeUs float64) {
	if probeUs > 0 {
		s.ProbeUs = probeUs
		s.Speed = referenceProbeUs / probeUs
	}
}

// segmentMedian reduces per-slice values to their median, skipping slices
// that saw no accesses (their percentiles are undefined, not zero).
func segmentMedian(segs []segmentStats, pick func(segmentStats) float64) float64 {
	var vals []float64
	for _, s := range segs {
		if s.Accesses > 0 {
			vals = append(vals, pick(s))
		}
	}
	return median(vals)
}

// The reductions. With normalised set, each slice's value is first brought
// to the reference speed: a slice during which the box ran 20% slow had
// 20% longer latencies and 20% less throughput for that reason alone.

func reduceOpsPerS(segs []segmentStats, normalised bool) float64 {
	return segmentMedian(segs, func(s segmentStats) float64 { return s.OpsPerS / s.scale(normalised) })
}

func reduceP50(segs []segmentStats, normalised bool) float64 {
	return segmentMedian(segs, func(s segmentStats) float64 { return s.P50ms * s.scale(normalised) })
}

func reduceP90(segs []segmentStats, normalised bool) float64 {
	return segmentMedian(segs, func(s segmentStats) float64 { return s.P90ms * s.scale(normalised) })
}

func reduceCPU(segs []segmentStats, normalised bool) float64 {
	return segmentMedian(segs, func(s segmentStats) float64 { return s.CPUUsPerOp * s.scale(normalised) })
}

func (s segmentStats) scale(normalised bool) float64 {
	if normalised {
		return s.Speed
	}
	return 1
}

// reduceP99 is the 99th percentile of the latencies of the quieter three
// quarters of the slices, pooled. A slice's own p99 is set by a handful of
// requests: whether one fsync hiccup or one neighbour's burst fell into it.
// Those bursts come and go between runs, so a p99 over everything — or a
// median of per-slice p99s — flips with them. Dropping the worst quarter of
// slices (ranked by their p99) and pooling the rest gives a tail with
// enough samples behind it that repeats; what was dropped is not hidden,
// it is client.stalls_over_20ms, client.access_p999_ms and
// client.access_max_ms.
func reduceP99(segs []segmentStats, normalised bool) float64 {
	var live []segmentStats
	for _, s := range segs {
		if s.Accesses > 0 {
			live = append(live, s)
		}
	}
	sort.SliceStable(live, func(i, j int) bool {
		return live[i].P99ms*live[i].scale(normalised) < live[j].P99ms*live[j].scale(normalised)
	})
	keep := (len(live)*3 + 3) / 4
	var pool []float64
	for _, s := range live[:keep] {
		f := s.scale(normalised)
		for _, l := range s.lat {
			pool = append(pool, l*f)
		}
	}
	sort.Float64s(pool)
	return percentile(pool, 0.99)
}

// latenciesMs extracts the successful latencies of one op kind, sorted.
func latenciesMs(samples []sample, kind opKind) []float64 {
	var out []float64
	for _, s := range samples {
		if s.ok && s.kind == kind {
			out = append(out, float64(s.lat)/float64(time.Millisecond))
		}
	}
	sort.Float64s(out)
	return out
}
