// Package history turns historical alert logs into the two things the
// online game needs at run time:
//
//   - per-type arrival curves, from which the expected number of future
//     alerts after any time of day is estimated (the Poisson means λ^t(s)
//     of the paper's §3.1, footnote: "the vast majority of alerts are false
//     positives; consequently we can estimate d^t_τ from alert log data"),
//   - the paper's "knowledge rollback" stabilizer: when the estimated total
//     future volume drops below a threshold (4 in the paper), the estimate
//     freezes at the last healthy query point, so a late-day attacker finds
//     no free lunch after the budget model thinks the day is over.
//
// It also reproduces the daily per-type statistics of Table 1.
package history

import (
	"fmt"
	"slices"
	"sort"
	"time"

	"github.com/auditgames/sag/internal/dist"
)

// Record is one historical alert, reduced to what estimation needs: the day
// it occurred, its (0-based, contiguous) type index, and its time of day.
type Record struct {
	Day  int
	Type int
	Time time.Duration
}

// Stats summarizes the daily volume of one alert type over the historical
// window — the row format of the paper's Table 1.
type Stats struct {
	Type int
	Mean float64
	Std  float64
	Min  float64
	Max  float64
}

// DailyStats computes per-type daily count statistics over numDays days
// (days without alerts of a type contribute zero counts). Records must have
// Day in [0, numDays) and Type in [0, numTypes).
func DailyStats(recs []Record, numTypes, numDays int) ([]Stats, error) {
	if numTypes <= 0 || numDays <= 0 {
		return nil, fmt.Errorf("history: need positive numTypes (%d) and numDays (%d)", numTypes, numDays)
	}
	counts := make([][]float64, numTypes)
	for t := range counts {
		counts[t] = make([]float64, numDays)
	}
	for _, r := range recs {
		if r.Type < 0 || r.Type >= numTypes {
			return nil, fmt.Errorf("history: record type %d out of [0,%d)", r.Type, numTypes)
		}
		if r.Day < 0 || r.Day >= numDays {
			return nil, fmt.Errorf("history: record day %d out of [0,%d)", r.Day, numDays)
		}
		counts[r.Type][r.Day]++
	}
	out := make([]Stats, numTypes)
	for t := range counts {
		var r dist.Running
		for _, c := range counts[t] {
			r.Add(c)
		}
		out[t] = Stats{Type: t, Mean: r.Mean(), Std: r.Std(), Min: r.Min(), Max: r.Max()}
	}
	return out, nil
}

// Curves holds the historical per-type arrival times and answers "how many
// alerts of each type are still expected after time s" by averaging over
// the historical days.
type Curves struct {
	numTypes int
	numDays  int
	// times[t] is the sorted concatenation of all type-t arrival times
	// across the window; the expected future count after s is
	// |{x > s}| / numDays.
	times [][]time.Duration
}

// NewCurves builds arrival curves from the historical window. Records must
// have Type in [0, numTypes) and Day in [0, numDays); numDays is the window
// length used for averaging.
func NewCurves(recs []Record, numTypes, numDays int) (*Curves, error) {
	if numTypes <= 0 || numDays <= 0 {
		return nil, fmt.Errorf("history: need positive numTypes (%d) and numDays (%d)", numTypes, numDays)
	}
	c := &Curves{numTypes: numTypes, numDays: numDays, times: make([][]time.Duration, numTypes)}
	for _, r := range recs {
		if r.Type < 0 || r.Type >= numTypes {
			return nil, fmt.Errorf("history: record type %d out of [0,%d)", r.Type, numTypes)
		}
		if r.Day < 0 || r.Day >= numDays {
			return nil, fmt.Errorf("history: record day %d out of [0,%d)", r.Day, numDays)
		}
		c.times[r.Type] = append(c.times[r.Type], r.Time)
	}
	for t := range c.times {
		slices.Sort(c.times[t])
	}
	return c, nil
}

// NumTypes returns the number of alert types the curves cover.
func (c *Curves) NumTypes() int { return c.numTypes }

// FutureRates returns, per type, the expected number of alerts arriving
// strictly after the given time of day. It implements core.Estimator.
func (c *Curves) FutureRates(at time.Duration) ([]float64, error) {
	out := make([]float64, c.numTypes)
	for t := range out {
		out[t] = c.futureRate(t, at)
	}
	return out, nil
}

// TotalFutureMean returns the expected total number of future alerts across
// all types after the given time — the quantity the rollback threshold is
// compared against.
func (c *Curves) TotalFutureMean(at time.Duration) float64 {
	total := 0.0
	for t := range c.times {
		total += c.futureRate(t, at)
	}
	return total
}

// futureRate is type t's expected number of alerts strictly after at.
func (c *Curves) futureRate(t int, at time.Duration) float64 {
	ts := c.times[t]
	// First index with time > at.
	idx := sort.Search(len(ts), func(i int) bool { return ts[i] > at })
	return float64(len(ts)-idx) / float64(c.numDays)
}

// DefaultRollbackThreshold is the threshold the paper uses in both the
// single-type and multi-type experiments.
const DefaultRollbackThreshold = 4.0

// Rollback wraps Curves with the paper's knowledge-rollback rule: while the
// estimated total future volume stays at or above the threshold, queries
// pass through (and the query time is remembered); once it drops below, the
// estimate is frozen at the last healthy query time. A Rollback is stateful
// per audit cycle — build a fresh one (or Reset) for each day.
type Rollback struct {
	curves    *Curves
	threshold float64
	lastGood  time.Duration
	seenGood  bool
}

// NewRollback wraps curves with the given threshold (pass
// DefaultRollbackThreshold for the paper's setting).
func NewRollback(curves *Curves, threshold float64) (*Rollback, error) {
	if curves == nil {
		return nil, fmt.Errorf("history: nil curves")
	}
	if threshold < 0 {
		return nil, fmt.Errorf("history: negative rollback threshold %g", threshold)
	}
	return &Rollback{curves: curves, threshold: threshold}, nil
}

// FutureRates implements core.Estimator with rollback semantics. The curves
// are walked once: the rates at `at` are summed in TotalFutureMean's order,
// so the threshold sees the same total, and returned when they pass it.
func (r *Rollback) FutureRates(at time.Duration) ([]float64, error) {
	rates, _ := r.curves.FutureRates(at) // Curves answers every offset
	total := 0.0
	for _, x := range rates {
		total += x
	}
	if total >= r.threshold {
		r.lastGood = at
		r.seenGood = true
		return rates, nil
	}
	if r.seenGood {
		return r.curves.FutureRates(r.lastGood)
	}
	// The whole day is below threshold (tiny historical volume): fall back
	// to the start-of-day estimate, the most conservative choice.
	return r.curves.FutureRates(0)
}

// Reset clears the per-cycle rollback state.
func (r *Rollback) Reset() {
	r.lastGood = 0
	r.seenGood = false
}

// RateRollback is the alternative reading of the paper's rollback trigger:
// instead of freezing when the total *remaining* volume drops below the
// threshold, it freezes when the expected arrival *rate* — the mean number
// of arrivals inside the next Window — drops below it. This engages
// earlier in the evening (while tens of alerts may still remain), trading
// a slightly staler estimate for an earlier stabilization point. Ablation
// A6 compares the two readings.
type RateRollback struct {
	curves    *Curves
	threshold float64
	window    time.Duration
	lastGood  time.Duration
	seenGood  bool
}

// DefaultRateWindow is the default window over which the arrival rate is
// measured (one hour).
const DefaultRateWindow = time.Hour

// NewRateRollback wraps curves with the rate-triggered rollback. window
// ≤ 0 selects DefaultRateWindow.
func NewRateRollback(curves *Curves, threshold float64, window time.Duration) (*RateRollback, error) {
	if curves == nil {
		return nil, fmt.Errorf("history: nil curves")
	}
	if threshold < 0 {
		return nil, fmt.Errorf("history: negative rollback threshold %g", threshold)
	}
	if window <= 0 {
		window = DefaultRateWindow
	}
	return &RateRollback{curves: curves, threshold: threshold, window: window}, nil
}

// windowRate returns the expected number of arrivals in (at, at+window].
func (r *RateRollback) windowRate(at time.Duration) float64 {
	return r.curves.TotalFutureMean(at) - r.curves.TotalFutureMean(at+r.window)
}

// FutureRates implements core.Estimator with rate-triggered rollback.
func (r *RateRollback) FutureRates(at time.Duration) ([]float64, error) {
	if r.windowRate(at) >= r.threshold {
		r.lastGood = at
		r.seenGood = true
		return r.curves.FutureRates(at)
	}
	if r.seenGood {
		return r.curves.FutureRates(r.lastGood)
	}
	return r.curves.FutureRates(0)
}

// Reset clears the per-cycle state.
func (r *RateRollback) Reset() {
	r.lastGood = 0
	r.seenGood = false
}
