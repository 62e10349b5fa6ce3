package game

import "github.com/auditgames/sag/internal/lp"

// SolveStats itemizes the work behind one SSE solve.
type SolveStats struct {
	// LPSolves counts candidate problems solved (one per attackable type).
	LPSolves int
	// Simplex accumulates simplex iteration and pivot counts. The closed-form
	// SSE solver runs no simplex, so it stays zero there; the field keeps its
	// shape for the exported counters.
	Simplex lp.Stats
}
