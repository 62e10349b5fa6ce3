package sim

import (
	"fmt"
	"time"

	"github.com/auditgames/sag/internal/core"
	"github.com/auditgames/sag/internal/history"
)

// switchableEstimator lets the sequential runner swap the underlying
// per-day estimator without rebuilding the engines; Reset (called by
// Engine.NewCycle) is forwarded to the active estimator.
type switchableEstimator struct {
	inner core.Estimator
}

func (s *switchableEstimator) FutureRates(at time.Duration) ([]float64, error) {
	if s.inner == nil {
		return nil, fmt.Errorf("sim: estimator not initialized")
	}
	return s.inner.FutureRates(at)
}

// Reset forwards to the active estimator's per-cycle reset, if any.
func (s *switchableEstimator) Reset() {
	if r, ok := s.inner.(interface{ Reset() }); ok {
		r.Reset()
	}
}

// RunSequential replays the dataset the way a production deployment runs:
// one pass over the calendar with a sliding historyDays-day window feeding
// the estimator, and a single pair of engines (OSSP + SSE baseline) reused
// across audit cycles via NewCycle. Every day after the warm-up window is
// a test day; results are returned in calendar order.
//
// The SSE baseline is deterministic, so its per-alert utilities are
// identical to the per-group runner's; the OSSP engine's signal sampling
// continues one RNG stream across days instead of reseeding per group.
func (r *Runner) RunSequential(historyDays int) ([]*DayResult, error) {
	if historyDays <= 0 || historyDays >= r.ds.NumDays() {
		return nil, fmt.Errorf("sim: historyDays %d outside (0,%d)", historyDays, r.ds.NumDays())
	}
	window, err := history.NewWindow(r.ds.NumTypes, historyDays)
	if err != nil {
		return nil, err
	}
	dayRecords := func(day int) []history.Record {
		recs := make([]history.Record, 0, len(r.ds.Days[day]))
		for _, a := range r.ds.Days[day] {
			recs = append(recs, history.Record{Type: a.Type, Time: a.Time})
		}
		return recs
	}
	for day := 0; day < historyDays; day++ {
		if err := window.AddDay(dayRecords(day)); err != nil {
			return nil, err
		}
	}

	swOSSP := &switchableEstimator{}
	swSSE := &switchableEstimator{}
	osspEng, sseEng, err := r.newEngines(swOSSP, swSSE, r.cfg.Seed*7919)
	if err != nil {
		return nil, err
	}

	var out []*DayResult
	for day := historyDays; day < r.ds.NumDays(); day++ {
		curves, err := window.Curves()
		if err != nil {
			return nil, err
		}
		if swOSSP.inner, err = r.newEstimator(curves); err != nil {
			return nil, err
		}
		if swSSE.inner, err = r.newEstimator(curves); err != nil {
			return nil, err
		}
		if err := osspEng.NewCycle(r.cfg.Budget); err != nil {
			return nil, err
		}
		if err := sseEng.NewCycle(r.cfg.Budget); err != nil {
			return nil, err
		}
		res, err := r.replayDay(Group{Start: day - historyDays, HistoryDays: historyDays}, osspEng, sseEng)
		if err != nil {
			return nil, err
		}
		out = append(out, res)

		if err := window.AddDay(dayRecords(day)); err != nil {
			return nil, err
		}
	}
	return out, nil
}
