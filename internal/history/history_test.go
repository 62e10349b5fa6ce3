package history

import (
	"errors"
	"math"
	"slices"
	"testing"
	"time"

	"github.com/auditgames/sag/internal/core"
)

func hour(h float64) time.Duration { return time.Duration(h * float64(time.Hour)) }

func TestDailyStatsBasic(t *testing.T) {
	// Type 0: 2 alerts day 0, 4 alerts day 1 → mean 3, std sqrt(2).
	// Type 1: none → mean 0.
	recs := []Record{
		{Day: 0, Type: 0, Time: hour(9)},
		{Day: 0, Type: 0, Time: hour(10)},
		{Day: 1, Type: 0, Time: hour(9)},
		{Day: 1, Type: 0, Time: hour(10)},
		{Day: 1, Type: 0, Time: hour(11)},
		{Day: 1, Type: 0, Time: hour(12)},
	}
	stats, err := DailyStats(recs, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if stats[0].Mean != 3 || math.Abs(stats[0].Std-math.Sqrt2) > 1e-12 {
		t.Fatalf("type 0 stats = %+v", stats[0])
	}
	if stats[0].Min != 2 || stats[0].Max != 4 {
		t.Fatalf("type 0 min/max = %g/%g", stats[0].Min, stats[0].Max)
	}
	if stats[1].Mean != 0 || stats[1].Std != 0 {
		t.Fatalf("type 1 stats = %+v", stats[1])
	}
}

func TestDailyStatsValidation(t *testing.T) {
	if _, err := DailyStats(nil, 0, 1); err == nil {
		t.Error("zero types should be rejected")
	}
	if _, err := DailyStats([]Record{{Day: 0, Type: 5}}, 2, 1); err == nil {
		t.Error("out-of-range type should be rejected")
	}
	if _, err := DailyStats([]Record{{Day: 9, Type: 0}}, 2, 1); err == nil {
		t.Error("out-of-range day should be rejected")
	}
}

func TestCurvesFutureRates(t *testing.T) {
	// Two history days. Type 0 arrives at 9:00 and 15:00 each day; type 1
	// arrives at 12:00 on day 0 only.
	recs := []Record{
		{Day: 0, Type: 0, Time: hour(9)},
		{Day: 0, Type: 0, Time: hour(15)},
		{Day: 1, Type: 0, Time: hour(9)},
		{Day: 1, Type: 0, Time: hour(15)},
		{Day: 0, Type: 1, Time: hour(12)},
	}
	c, err := NewCurves(recs, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	check := func(at time.Duration, want0, want1 float64) {
		t.Helper()
		rates, err := c.FutureRates(at)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(rates[0]-want0) > 1e-12 || math.Abs(rates[1]-want1) > 1e-12 {
			t.Fatalf("FutureRates(%v) = %v, want [%g %g]", at, rates, want0, want1)
		}
	}
	check(0, 2, 0.5)
	check(hour(9), 1, 0.5)     // strictly after 9:00 → one per day for type 0
	check(hour(12), 1, 0)      // type 1's 12:00 arrival is not "after" 12:00
	check(hour(15), 0, 0)      // day over
	check(hour(8.999), 2, 0.5) // just before the morning batch
	if c.NumTypes() != 2 {
		t.Fatalf("NumTypes = %d", c.NumTypes())
	}
}

func TestCurvesTotalFutureMean(t *testing.T) {
	recs := []Record{
		{Day: 0, Type: 0, Time: hour(9)},
		{Day: 0, Type: 1, Time: hour(10)},
	}
	c, err := NewCurves(recs, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := c.TotalFutureMean(0); got != 2 {
		t.Fatalf("TotalFutureMean(0) = %g, want 2", got)
	}
	if got := c.TotalFutureMean(hour(9)); got != 1 {
		t.Fatalf("TotalFutureMean(9h) = %g, want 1", got)
	}
}

func TestCurvesValidation(t *testing.T) {
	if _, err := NewCurves(nil, 0, 1); err == nil {
		t.Error("zero types should be rejected")
	}
	if _, err := NewCurves([]Record{{Type: 3}}, 2, 1); err == nil {
		t.Error("out-of-range type should be rejected")
	}
	if _, err := NewCurves([]Record{{Day: 2}}, 2, 1); err == nil {
		t.Error("out-of-range day should be rejected")
	}
}

// denseCurves builds a history with many early alerts and a thin tail, the
// shape that makes rollback matter.
func denseCurves(t *testing.T) *Curves {
	t.Helper()
	var recs []Record
	for d := 0; d < 10; d++ {
		for i := 0; i < 20; i++ {
			recs = append(recs, Record{Day: d, Type: 0, Time: hour(8) + time.Duration(i)*20*time.Minute})
		}
		// One lonely evening alert every other day.
		if d%2 == 0 {
			recs = append(recs, Record{Day: d, Type: 0, Time: hour(21)})
		}
	}
	c, err := NewCurves(recs, 1, 10)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestRollbackFreezesLateDay(t *testing.T) {
	c := denseCurves(t)
	rb, err := NewRollback(c, DefaultRollbackThreshold)
	if err != nil {
		t.Fatal(err)
	}
	// Morning: plenty of future volume, passthrough.
	morning, err := rb.FutureRates(hour(9))
	if err != nil {
		t.Fatal(err)
	}
	direct, _ := c.FutureRates(hour(9))
	if morning[0] != direct[0] {
		t.Fatal("rollback should pass through while above threshold")
	}
	if countEngaged(rb, hour(9)) {
		t.Fatal("rollback should not be engaged in the morning")
	}
	// Scan the day: a healthy query passes through, an engaged one asks the
	// engine to keep its estimate and offers the start of day for a cycle
	// that has none.
	start, _ := c.FutureRates(0)
	engaged := 0
	for h := 8.0; h <= 23.5; h += 0.25 {
		rates, err := rb.FutureRates(hour(h))
		if !countEngaged(rb, hour(h)) {
			want, _ := c.FutureRates(hour(h))
			if err != nil || !slices.Equal(rates, want) {
				t.Fatalf("healthy query at %.2fh answered %v, %v; want %v", h, rates, err, want)
			}
			continue
		}
		engaged++
		if !errors.Is(err, core.ErrKeepEstimate) || !slices.Equal(rates, start) {
			t.Fatalf("engaged query at %.2fh answered %v, %v; want %v with ErrKeepEstimate", h, rates, err, start)
		}
	}
	if engaged == 0 {
		t.Fatal("the rollback never engaged on the dense fixture")
	}
}

func TestRollbackWholeDayBelowThreshold(t *testing.T) {
	// History so thin the day never reaches the threshold: every query keeps
	// the estimate, offering the start of day.
	recs := []Record{{Day: 0, Type: 0, Time: hour(9)}}
	c, err := NewCurves(recs, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := NewRollback(c, DefaultRollbackThreshold)
	if err != nil {
		t.Fatal(err)
	}
	rates, err := rb.FutureRates(hour(15))
	if !errors.Is(err, core.ErrKeepEstimate) {
		t.Fatalf("got %v, want ErrKeepEstimate", err)
	}
	start, _ := c.FutureRates(0)
	if rates[0] != start[0] {
		t.Fatalf("want start-of-day fallback %g, got %g", start[0], rates[0])
	}
}

// TestRollbackReset: a Rollback holds no state, so its answer is a function
// of the offset alone — whatever was asked before, in any order, and across
// the no-op Reset.
func TestRollbackReset(t *testing.T) {
	c := denseCurves(t)
	rb, err := NewRollback(c, DefaultRollbackThreshold)
	if err != nil {
		t.Fatal(err)
	}
	assertStateless(t, rb, rb.Reset)
}

func TestRollbackValidation(t *testing.T) {
	if _, err := NewRollback(nil, 1); err == nil {
		t.Error("nil curves should be rejected")
	}
	c := denseCurves(t)
	if _, err := NewRollback(c, -1); err == nil {
		t.Error("negative threshold should be rejected")
	}
}

func TestRateRollbackEngagesEarlierThanCountRollback(t *testing.T) {
	c := denseCurves(t)
	count, err := NewRollback(c, DefaultRollbackThreshold)
	if err != nil {
		t.Fatal(err)
	}
	rate, err := NewRateRollback(c, DefaultRollbackThreshold, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	var firstCount, firstRate time.Duration = -1, -1
	for h := 0.0; h <= 23.75; h += 0.25 {
		at := hour(h)
		if firstCount < 0 && countEngaged(count, at) {
			firstCount = at
		}
		if firstRate < 0 && rateEngaged(rate, at) {
			firstRate = at
		}
	}
	if firstRate < 0 {
		t.Fatal("rate rollback never engaged on the dense fixture")
	}
	if firstCount >= 0 && firstRate > firstCount {
		t.Fatalf("rate rollback engaged at %v, after count rollback at %v", firstRate, firstCount)
	}
}

// TestRateRollbackFreezeAndReset: the rate-triggered rollback engages
// later in the day, answering as Rollback does when engaged, and needs no
// reset between cycles: its answer is a function of the offset alone.
func TestRateRollbackFreezeAndReset(t *testing.T) {
	c := denseCurves(t)
	// The dense fixture runs at ≈3 arrivals/hour, so a threshold of 2
	// keeps the morning healthy and engages once arrivals stop.
	rr, err := NewRateRollback(c, 2, 0) // default window
	if err != nil {
		t.Fatal(err)
	}
	morning, err := rr.FutureRates(hour(9))
	if err != nil {
		t.Fatal(err)
	}
	direct, _ := c.FutureRates(hour(9))
	if morning[0] != direct[0] {
		t.Fatal("healthy query should pass through")
	}
	var frozenAt time.Duration = -1
	for h := 9.25; h <= 23.5 && frozenAt < 0; h += 0.25 {
		if rateEngaged(rr, hour(h)) {
			frozenAt = hour(h)
		}
	}
	if frozenAt < 0 {
		t.Fatal("rate rollback never engaged")
	}
	frozen, err := rr.FutureRates(frozenAt)
	start, _ := c.FutureRates(0)
	if !errors.Is(err, core.ErrKeepEstimate) || !slices.Equal(frozen, start) {
		t.Fatalf("engaged query answered %v, %v; want %v with ErrKeepEstimate", frozen, err, start)
	}
	assertStateless(t, rr, func() {})
}

// assertStateless asks est the same offsets forwards, backwards and again
// after reset, and requires identical answers each time.
func assertStateless(t *testing.T, est core.Estimator, reset func()) {
	t.Helper()
	type answer struct {
		rates []float64
		keep  bool
	}
	var offsets []time.Duration
	for h := 0.0; h <= 23.75; h += 0.25 {
		offsets = append(offsets, hour(h))
	}
	ask := func(at time.Duration) answer {
		rates, err := est.FutureRates(at)
		if err != nil && !errors.Is(err, core.ErrKeepEstimate) {
			t.Fatal(err)
		}
		return answer{rates, err != nil}
	}
	want := make(map[time.Duration]answer)
	keeps := 0
	for _, at := range offsets {
		want[at] = ask(at)
		if want[at].keep {
			keeps++
		}
	}
	if keeps == 0 || keeps == len(offsets) {
		t.Fatalf("fixture: %d of %d offsets keep the estimate; the test needs both answers", keeps, len(offsets))
	}
	reset()
	backward := slices.Clone(offsets)
	slices.Reverse(backward)
	for pass, order := range [][]time.Duration{backward, offsets} {
		for _, at := range order {
			if got := ask(at); got.keep != want[at].keep || !slices.Equal(got.rates, want[at].rates) {
				t.Fatalf("pass %d at %v: answered %v, first answered %v", pass, at, got, want[at])
			}
		}
	}
}

func TestRateRollbackValidation(t *testing.T) {
	if _, err := NewRateRollback(nil, 1, time.Hour); err == nil {
		t.Error("nil curves should be rejected")
	}
	c := denseCurves(t)
	if _, err := NewRateRollback(c, -1, time.Hour); err == nil {
		t.Error("negative threshold should be rejected")
	}
}

func TestZeroThresholdRollbackIsPassthrough(t *testing.T) {
	c := denseCurves(t)
	rb, err := NewRollback(c, 0)
	if err != nil {
		t.Fatal(err)
	}
	for h := 0.0; h < 24; h += 1.5 {
		got, err := rb.FutureRates(hour(h))
		if err != nil {
			t.Fatal(err)
		}
		want, _ := c.FutureRates(hour(h))
		if got[0] != want[0] {
			t.Fatalf("threshold 0 at %gh: got %g, want %g", h, got[0], want[0])
		}
	}
}

// countEngaged and rateEngaged report whether a query at this time would be
// answered from a rolled-back time.
func countEngaged(r *Rollback, at time.Duration) bool {
	return r.curves.TotalFutureMean(at) < r.threshold
}

func rateEngaged(r *RateRollback, at time.Duration) bool {
	return r.windowRate(at) < r.threshold
}
