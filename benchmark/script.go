package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash/fnv"
	"math/rand"
)

// World constants of the served SAG at its defaults: 400 background
// employees, 2000 background patients, and PairsPerKind planted pairs per
// alert kind appended after them. Planted pair i of kind k is
// (employees+120k+i, patients+120k+i) and fires taxonomy type k+1;
// background pairs never alert (the generator makes them alert-silent).
const (
	worldEmployees = 400
	worldPatients  = 2000
	pairsPerKind   = 120
	alertKinds     = 7
	cycleBudget    = 50 // the paper's multi-type daily budget
)

type opKind uint8

const (
	opAccess opKind = iota
	opQuit
	opStatus
	opClose
	opNew
	opSnapshot
	opSummary
	numOpKinds
)

var opKindNames = [numOpKinds]string{"access", "quit", "status", "close", "new", "snapshot", "summary"}

func (k opKind) String() string { return opKindNames[k] }

// op is one scripted request together with what a correct server must say.
type op struct {
	kind      opKind
	employee  int
	patient   int
	wantAlert bool
	wantType  int // taxonomy type ID, 1..7, when wantAlert
}

// warmOp is sent once to every tenant before timing starts: it pays the
// create-on-first-use path (engine build, journal open) so no timed request
// does. It is part of every tenant's history — the tallies and the oracle
// replay both count it.
var warmOp = op{kind: opAccess}

// mix is the per-request draw of an EMR front end. The shares sum to one.
type mix struct {
	benign, alert, quit, status float64
}

// tenantScript is one tenant's endless request stream. It is a pure function
// of (workload, seed, tenant index): the server only ever sees the requests.
type tenantScript struct {
	rng         *rand.Rand
	mix         mix
	cycleAlerts int  // roll the cycle after this many alerts
	snapshot    bool // follow each roll with a snapshot and a summary read
	alerts      int  // alerts so far in the current cycle
	kind        int  // next alert kind, cycling 0..6 from a seeded start
	pending     []op // the rest of a roll in progress
}

func newTenantScript(w *workload, seed int64, tenant int) *tenantScript {
	stream := w.Script
	if stream == "" {
		stream = w.Name
	}
	h := fnv.New64a()
	fmt.Fprintf(h, "%s/%d/%d", stream, seed, tenant)
	rng := rand.New(rand.NewSource(int64(h.Sum64())))
	return &tenantScript{
		rng:         rng,
		mix:         w.Mix,
		cycleAlerts: w.CycleAlerts,
		snapshot:    w.SnapshotOnRoll,
		// The kinds cycle, but where the cycle starts is the seed's: another
		// seed is another sequence of alert types, so another budget chain
		// and other answers, not only other employee and patient IDs.
		kind: rng.Intn(alertKinds),
	}
}

// next returns the tenant's next request.
func (s *tenantScript) next() op {
	if len(s.pending) > 0 {
		o := s.pending[0]
		s.pending = s.pending[1:]
		return o
	}
	r := s.rng.Float64()
	switch {
	case r < s.mix.alert:
		k := s.kind
		s.kind = (s.kind + 1) % alertKinds
		i := s.rng.Intn(pairsPerKind)
		s.alerts++
		if s.alerts >= s.cycleAlerts {
			// A paper-sized day is over: check the books, draw the audit
			// plan, open the next day. Without the roll the per-cycle
			// decision list makes every snapshot grow and the run quadratic.
			s.alerts = 0
			s.pending = append(s.pending, op{kind: opStatus}, op{kind: opClose}, op{kind: opNew})
			if s.snapshot {
				s.pending = append(s.pending, op{kind: opSnapshot}, op{kind: opSummary})
			}
		}
		return op{
			kind:      opAccess,
			employee:  worldEmployees + pairsPerKind*k + i,
			patient:   worldPatients + pairsPerKind*k + i,
			wantAlert: true,
			wantType:  k + 1,
		}
	case r < s.mix.alert+s.mix.quit:
		return op{kind: opQuit, employee: s.rng.Intn(worldEmployees)}
	case r < s.mix.alert+s.mix.quit+s.mix.status:
		return op{kind: opStatus}
	default:
		return op{kind: opAccess, employee: s.rng.Intn(worldEmployees), patient: s.rng.Intn(worldPatients)}
	}
}

// midRoll reports whether the tenant is between a close and its new cycle.
func (s *tenantScript) midRoll() bool { return len(s.pending) > 0 }

func tenantID(i int) string { return fmt.Sprintf("t%02d", i) }

// scriptHash digests the first n requests of every tenant of a workload, for
// the determinism test and for the result file: two runs are comparable only
// if they were driven by the same script.
func scriptHash(w *workload, seed int64, n int) string {
	h := sha256.New()
	for t := 0; t < w.Tenants; t++ {
		s := newTenantScript(w, seed, t)
		for i := 0; i < n; i++ {
			o := s.next()
			fmt.Fprintf(h, "%d:%d:%d:%d;", t, o.kind, o.employee, o.patient)
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
