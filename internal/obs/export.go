package obs

import (
	"bufio"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
)

// WritePrometheus writes every family in the Prometheus text exposition
// format (version 0.0.4). Families and series appear in sorted order so the
// output is deterministic. A nil registry writes nothing.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	bw := bufio.NewWriter(w)

	r.mu.RLock()
	names := make([]string, 0, len(r.families))
	for name := range r.families {
		names = append(names, name)
	}
	sort.Strings(names)

	for _, name := range names {
		f := r.families[name]
		if f.help != "" {
			bw.WriteString("# HELP " + f.name + " " + f.help + "\n")
		}
		bw.WriteString("# TYPE " + f.name + " " + f.kind.String() + "\n")
		keys := make([]string, 0, len(f.series))
		for k := range f.series {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			switch inst := f.series[k].(type) {
			case *Counter:
				bw.WriteString(f.name + k + " " + strconv.FormatUint(inst.Value(), 10) + "\n")
			case *Gauge:
				bw.WriteString(f.name + k + " " + formatFloat(inst.Value()) + "\n")
			case *Histogram:
				writeHistogram(bw, f.name, k, inst)
			}
		}
	}
	r.mu.RUnlock()
	return bw.Flush()
}

// writeHistogram emits the cumulative _bucket series plus _sum and _count.
func writeHistogram(bw *bufio.Writer, name, key string, h *Histogram) {
	cum := uint64(0)
	for i := range h.counts {
		cum += h.counts[i].Load()
		le := "+Inf"
		if i < len(h.bounds) {
			le = formatFloat(h.bounds[i])
		}
		bw.WriteString(name + "_bucket" + withLabel(key, "le", le) + " " +
			strconv.FormatUint(cum, 10) + "\n")
	}
	bw.WriteString(name + "_sum" + key + " " + formatFloat(h.Sum()) + "\n")
	bw.WriteString(name + "_count" + key + " " + strconv.FormatUint(h.Count(), 10) + "\n")
}

// withLabel splices one extra label pair into an existing (possibly empty)
// rendered label set.
func withLabel(key, name, value string) string {
	pair := name + `="` + escapeLabelValue(value) + `"`
	if key == "" {
		return "{" + pair + "}"
	}
	return key[:len(key)-1] + "," + pair + "}"
}

func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// Handler returns an http.Handler serving the registry in Prometheus text
// format; usable on a nil registry (serves an empty exposition).
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WritePrometheus(w)
	})
}

// Bucket is one cumulative histogram bucket in a snapshot.
type Bucket struct {
	UpperBound float64 // +Inf for the last bucket
	Count      uint64  // observations ≤ UpperBound
}

// HistogramData is the snapshot of one histogram series.
type HistogramData struct {
	Buckets []Bucket
	Sum     float64
	Count   uint64
}

// Snapshot is a point-in-time copy of every series, keyed by the canonical
// series identifier a scrape prints ("name" or `name{k="v",...}`, labels
// sorted by name). Concurrent writers may land between field reads; each
// individual value is atomically read.
type Snapshot struct {
	Counters   map[string]uint64
	Gauges     map[string]float64
	Histograms map[string]HistogramData
}

// Snapshot copies the current state of every series for test assertions.
// A nil registry yields empty (non-nil) maps.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters:   make(map[string]uint64),
		Gauges:     make(map[string]float64),
		Histograms: make(map[string]HistogramData),
	}
	if r == nil {
		return s
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	for name, f := range r.families {
		for k, raw := range f.series {
			id := name + k
			switch inst := raw.(type) {
			case *Counter:
				s.Counters[id] = inst.Value()
			case *Gauge:
				s.Gauges[id] = inst.Value()
			case *Histogram:
				hd := HistogramData{Sum: inst.Sum(), Count: inst.Count()}
				cum := uint64(0)
				for i := range inst.counts {
					cum += inst.counts[i].Load()
					ub := math.Inf(1)
					if i < len(inst.bounds) {
						ub = inst.bounds[i]
					}
					hd.Buckets = append(hd.Buckets, Bucket{UpperBound: ub, Count: cum})
				}
				s.Histograms[id] = hd
			}
		}
	}
	return s
}
