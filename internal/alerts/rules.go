// Package alerts implements the breach-detection layer of the pipeline: the
// base rules the paper's medical center runs over every EMR access (same
// last name, department co-worker, neighbor within 0.5 miles, same
// residential address), and the combination taxonomy of Table 1 ("when an
// access triggers multiple types, their combination is regarded as a new
// type").
//
// The Engine joins each emr.AccessEvent against the world's entity tables
// and emits a typed Alert for every access matching at least one rule. The
// output stream is what the game layer consumes: type + timestamp.
package alerts

import (
	"fmt"
	"time"

	"github.com/auditgames/sag/internal/emr"
)

// Rule is a bitmask of base detection predicates.
type Rule uint8

const (
	// RuleLastName fires when employee and patient share a surname.
	RuleLastName Rule = 1 << iota
	// RuleCoworker fires when the patient works in the employee's
	// department.
	RuleCoworker
	// RuleNeighbor fires when any two of their registered addresses are
	// within (0, 0.5] miles of each other.
	RuleNeighbor
	// RuleSameAddress fires when they share a registered address ID.
	RuleSameAddress
)

// NeighborRadiusMiles is the paper's neighborhood radius.
const NeighborRadiusMiles = 0.5

// ruleNames holds String's rendering of every mask of the four base rules,
// built once: String runs on every alert.
var ruleNames = func() (names [RuleSameAddress << 1]string) {
	for r := range names {
		names[r] = Rule(r).render()
	}
	return names
}()

// String renders the mask as the Table 1 style description.
func (r Rule) String() string {
	if int(r) < len(ruleNames) {
		return ruleNames[r]
	}
	return r.render()
}

func (r Rule) render() string {
	if r == 0 {
		return "none"
	}
	out := ""
	add := func(s string) {
		if out != "" {
			out += "; "
		}
		out += s
	}
	if r&RuleLastName != 0 {
		add("Same Last Name")
	}
	if r&RuleCoworker != 0 {
		add("Department Co-worker")
	}
	if r&RuleNeighbor != 0 {
		add("Neighbor (<=0.5 miles)")
	}
	if r&RuleSameAddress != 0 {
		add("Same Address")
	}
	return out
}

// Alert is one typed alert produced by the detection engine.
type Alert struct {
	Day  int
	Time time.Duration
	// Type is the taxonomy type ID (see Taxonomy); the paper's Table 1
	// types are 1..7.
	Type int
	// Rules is the base-rule mask that produced the type.
	Rules      Rule
	EmployeeID int
	PatientID  int
}

// Engine evaluates the base rules against a fixed world.
type Engine struct {
	world *emr.World
	tax   *Taxonomy
}

// NewEngine builds a detection engine over the world using the taxonomy
// (pass NewTable1Taxonomy() for the paper's typing).
func NewEngine(w *emr.World, tax *Taxonomy) (*Engine, error) {
	if w == nil {
		return nil, fmt.Errorf("alerts: nil world")
	}
	if tax == nil {
		return nil, fmt.Errorf("alerts: nil taxonomy")
	}
	return &Engine{world: w, tax: tax}, nil
}

// EvaluateRules returns the base-rule mask for one access (0 when benign).
func (e *Engine) EvaluateRules(ev emr.AccessEvent) (Rule, error) {
	if ev.EmployeeID < 0 || ev.EmployeeID >= len(e.world.Employees) {
		return 0, fmt.Errorf("alerts: employee %d out of range", ev.EmployeeID)
	}
	if ev.PatientID < 0 || ev.PatientID >= len(e.world.Patients) {
		return 0, fmt.Errorf("alerts: patient %d out of range", ev.PatientID)
	}
	emp := &e.world.Employees[ev.EmployeeID]
	pat := &e.world.Patients[ev.PatientID]

	var mask Rule
	if emp.LastName == pat.LastName {
		mask |= RuleLastName
	}
	if pat.IsEmployee && pat.Department == emp.Department {
		mask |= RuleCoworker
	}
	same, neighbor := addressRelations(e.world, emp.AddressIDs, pat.AddressIDs)
	if same {
		mask |= RuleSameAddress
	}
	if neighbor {
		mask |= RuleNeighbor
	}
	return mask, nil
}

// addressRelations reports whether the two address lists share an ID and
// whether any cross pair of distinct locations is within the neighbor
// radius.
func addressRelations(w *emr.World, a, b []int) (same, neighbor bool) {
	for _, ia := range a {
		la := w.AddressLoc(ia)
		for _, ib := range b {
			if ia == ib {
				same = true
				continue
			}
			d := la.DistanceMiles(w.AddressLoc(ib))
			if d > 0 && d <= NeighborRadiusMiles {
				neighbor = true
			}
		}
	}
	return same, neighbor
}

// Evaluate runs the rules on one access and returns the alert, or ok=false
// for a benign access.
func (e *Engine) Evaluate(ev emr.AccessEvent) (Alert, bool, error) {
	mask, err := e.EvaluateRules(ev)
	if err != nil {
		return Alert{}, false, err
	}
	if mask == 0 {
		return Alert{}, false, nil
	}
	return Alert{
		Day:        ev.Day,
		Time:       ev.Time,
		Type:       e.tax.TypeOf(mask),
		Rules:      mask,
		EmployeeID: ev.EmployeeID,
		PatientID:  ev.PatientID,
	}, true, nil
}

// Scan evaluates a whole day's access log and returns its alerts in input
// order (the generator emits logs sorted by time).
func (e *Engine) Scan(events []emr.AccessEvent) ([]Alert, error) {
	var out []Alert
	for _, ev := range events {
		a, ok, err := e.Evaluate(ev)
		if err != nil {
			return nil, err
		}
		if ok {
			out = append(out, a)
		}
	}
	return out, nil
}
