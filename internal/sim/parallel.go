package sim

import (
	"fmt"

	"github.com/auditgames/sag/internal/pool"
)

// RunGroupsParallel evaluates the groups concurrently across at most
// workers executors (≤ 0 selects the full shared pool) and returns results
// in input order. Each group's evaluation is fully independent — its
// engines, RNG streams, and rollback state are per-group — so the output is
// identical to RunGroups for the same configuration.
//
// The fan-out runs on the process-wide worker pool (internal/pool).
func (r *Runner) RunGroupsParallel(gs []Group, workers int) ([]*DayResult, error) {
	if len(gs) == 0 {
		return nil, nil
	}
	results := make([]*DayResult, len(gs))
	errs := make([]error, len(gs))
	pool.Shared().ForEach(len(gs), workers, func(i int) {
		results[i], errs[i] = r.RunGroup(gs[i])
	})
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("sim: group %d (%+v): %w", i, gs[i], err)
		}
	}
	return results, nil
}
