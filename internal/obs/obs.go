// Package obs is the repository's zero-dependency observability substrate:
// a concurrency-safe metrics registry with atomic counters, gauges, and
// fixed-bucket histograms, a Prometheus-text-format exporter, and a typed
// snapshot API for tests.
//
// The package exists because the ROADMAP's north star is a production-scale
// service, and the paper's own requirement — OSSP must run "in real time for
// each triggered alert" — makes per-stage solve latency, simplex effort, and
// budget trajectory first-class operational signals. No third-party metrics
// library is available (stdlib-only constraint), so this is a small, exact
// implementation of the subset the SAG pipeline needs.
//
// Design points:
//
//   - Every instrument is identified by a family name plus an optional,
//     order-insensitive label set. Families are created on first use and
//     cached; the hot path (Inc/Set/Observe) is pure atomics, no locks.
//   - Nil-safety is pervasive: a nil *Registry hands out nil instruments,
//     and every method on a nil instrument is a no-op. Library users that
//     do not configure metrics pay one predictable-branch nil check.
//   - The exporter emits the Prometheus text exposition format (version
//     0.0.4) with families and series in sorted order, so output is
//     deterministic and diffable in tests.
package obs

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Label is one name/value pair attached to an instrument.
type Label struct {
	Name  string
	Value string
}

// L is shorthand for constructing a Label.
func L(name, value string) Label { return Label{Name: name, Value: value} }

// seriesKey renders a canonical (sorted, escaped) label suffix such as
// `{code="200",route="/v1/access"}`, or "" for an unlabeled series.
func seriesKey(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Name < ls[j].Name })
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Name)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(l.Value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func escapeLabelValue(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// kind discriminates metric families.
type kind int

const (
	kindCounter kind = iota
	kindGauge
	kindHistogram
)

func (k kind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	case kindHistogram:
		return "histogram"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// family is one named metric family with its series keyed by label set.
type family struct {
	name    string
	help    string
	kind    kind
	buckets []float64 // histogram families only
	series  map[string]any
}

// Registry owns metric families and hands out instruments. The zero value
// is not usable — create one with NewRegistry. A nil *Registry is valid
// everywhere and disables collection.
type Registry struct {
	mu       sync.RWMutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// lookup returns the series instrument, creating family and series as
// needed. It panics on a kind mismatch — registering the same name as two
// different metric types is always a programming error and silently
// returning the wrong instrument would corrupt the export.
func (r *Registry) lookup(name, help string, k kind, buckets []float64, labels []Label) any {
	key := seriesKey(labels)
	r.mu.RLock()
	f := r.families[name]
	if f != nil {
		if inst, ok := f.series[key]; ok {
			kindOK := f.kind == k
			r.mu.RUnlock()
			if !kindOK {
				panic(fmt.Sprintf("obs: metric %q registered as %v, requested as %v", name, f.kind, k))
			}
			return inst
		}
	}
	r.mu.RUnlock()

	r.mu.Lock()
	defer r.mu.Unlock()
	f = r.families[name]
	if f == nil {
		f = &family{name: name, help: help, kind: k, buckets: buckets, series: make(map[string]any)}
		r.families[name] = f
	}
	if f.kind != k {
		panic(fmt.Sprintf("obs: metric %q registered as %v, requested as %v", name, f.kind, k))
	}
	if inst, ok := f.series[key]; ok {
		return inst
	}
	var inst any
	switch k {
	case kindCounter:
		inst = &Counter{}
	case kindGauge:
		inst = &Gauge{}
	case kindHistogram:
		inst = newHistogram(f.buckets)
	}
	f.series[key] = inst
	return inst
}

// Counter returns (creating if absent) the counter series for the given
// name and labels. Returns nil on a nil registry.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	if r == nil {
		return nil
	}
	return r.lookup(name, help, kindCounter, nil, labels).(*Counter)
}

// Gauge returns (creating if absent) the gauge series for the given name
// and labels. Returns nil on a nil registry.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	if r == nil {
		return nil
	}
	return r.lookup(name, help, kindGauge, nil, labels).(*Gauge)
}

// Histogram returns (creating if absent) the histogram series for the given
// name and labels. buckets are ascending upper bounds; a final +Inf bucket
// is implicit. The bucket layout is fixed by the first registration of the
// family; later calls may pass nil. Returns nil on a nil registry.
func (r *Registry) Histogram(name, help string, buckets []float64, labels ...Label) *Histogram {
	if r == nil {
		return nil
	}
	if buckets != nil {
		buckets = append([]float64(nil), buckets...)
		sort.Float64s(buckets)
	}
	return r.lookup(name, help, kindHistogram, buckets, labels).(*Histogram)
}

// Counter is a monotonically increasing uint64. All methods are safe for
// concurrent use and no-ops on a nil receiver.
type Counter struct {
	v atomic.Uint64
}

// Inc adds 1.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current count (0 on nil).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a float64 that can go up and down. All methods are safe for
// concurrent use and no-ops on a nil receiver.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.bits.Store(math.Float64bits(v))
	}
}

// Add adds delta with a CAS loop.
func (g *Gauge) Add(delta float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current value (0 on nil).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram counts observations into fixed buckets (ascending upper
// bounds, implicit +Inf last) and tracks their sum. All methods are safe
// for concurrent use and no-ops on a nil receiver.
type Histogram struct {
	bounds  []float64       // finite upper bounds, ascending
	counts  []atomic.Uint64 // len(bounds)+1; last is the +Inf bucket
	sumBits atomic.Uint64
	total   atomic.Uint64
}

func newHistogram(bounds []float64) *Histogram {
	return &Histogram{bounds: bounds, counts: make([]atomic.Uint64, len(bounds)+1)}
}

// Observe records one sample. NaN observations are dropped — they would
// poison the sum without being attributable to any bucket.
func (h *Histogram) Observe(v float64) {
	if h == nil || math.IsNaN(v) {
		return
	}
	// First bucket whose upper bound contains v; linear scan is faster than
	// binary search at the ≤20 bucket counts used here.
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.total.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// ObserveSince records the elapsed time since t0 in seconds. On a nil
// receiver it is a no-op (and callers should skip the time.Now() that
// produced t0; see Enabled).
func (h *Histogram) ObserveSince(t0 time.Time) {
	if h != nil {
		h.Observe(time.Since(t0).Seconds())
	}
}

// Count returns the total number of observations (0 on nil).
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.total.Load()
}

// Sum returns the sum of observations (0 on nil).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

// Enabled reports whether observations will be recorded. Hot paths use it
// to skip the time.Now() calls that feed ObserveSince when metrics are off.
func (h *Histogram) Enabled() bool { return h != nil }

// DefTimeBuckets is the default latency bucket layout, in seconds, spanning
// the SAG pipeline's realistic range: single-LP solves land in tens of
// microseconds, full 7-type decisions in the low milliseconds, and the
// paper's reported per-alert budget is 20 ms.
var DefTimeBuckets = []float64{
	50e-6, 100e-6, 250e-6, 500e-6,
	1e-3, 2.5e-3, 5e-3, 10e-3, 25e-3, 50e-3, 100e-3,
	0.25, 0.5, 1, 2.5,
}

// DefWaitBuckets is a bucket layout, in seconds, for queueing delays —
// admission-queue waits, drain times, retry hints. These routinely exceed
// the solve latencies DefTimeBuckets is shaped for, so the layout trades
// sub-millisecond resolution for coverage out to half a minute.
var DefWaitBuckets = []float64{
	1e-3, 2.5e-3, 5e-3, 10e-3, 25e-3, 50e-3, 100e-3,
	0.25, 0.5, 1, 2.5, 5, 10, 30,
}

// ExponentialBuckets returns count ascending bounds start, start·factor, ...
func ExponentialBuckets(start, factor float64, count int) []float64 {
	out := make([]float64, count)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}
