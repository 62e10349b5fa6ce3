package alerts

import (
	"sync"
	"testing"
	"time"

	"github.com/auditgames/sag/internal/emr"
)

// The pipeline's background population; the generator appends planted
// people after it.
const bgE, bgP = 60, 300

func buildPipeline(t *testing.T, pairsPerKind, background int) (*emr.Generator, *Engine) {
	t.Helper()
	w, err := emr.NewWorld(emr.WorldConfig{Seed: 7, Departments: 6, Employees: bgE, Patients: bgP})
	if err != nil {
		t.Fatal(err)
	}
	g, err := emr.NewGenerator(w, emr.GeneratorConfig{Seed: 7, PairsPerKind: pairsPerKind, BackgroundPerDay: background})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(w, NewTable1Taxonomy())
	if err != nil {
		t.Fatal(err)
	}
	return g, eng
}

func TestNewEngineValidation(t *testing.T) {
	if _, err := NewEngine(nil, NewTable1Taxonomy()); err == nil {
		t.Error("nil world should be rejected")
	}
	w, _ := emr.NewWorld(emr.WorldConfig{Seed: 1, Employees: 1, Patients: 1, Departments: 1})
	if _, err := NewEngine(w, nil); err == nil {
		t.Error("nil taxonomy should be rejected")
	}
}

func TestRuleStringCombinations(t *testing.T) {
	if Rule(0).String() != "none" {
		t.Fatal("zero mask should be 'none'")
	}
	got := (RuleLastName | RuleSameAddress | RuleNeighbor).String()
	want := "Same Last Name; Neighbor (<=0.5 miles); Same Address"
	if got != want {
		t.Fatalf("mask string = %q, want %q", got, want)
	}
	if RuleCoworker.String() != "Department Co-worker" {
		t.Fatal("coworker description wrong")
	}
}

func TestTaxonomyTable1Registration(t *testing.T) {
	tax := NewTable1Taxonomy()
	cases := []struct {
		mask Rule
		id   int
	}{
		{RuleLastName, 1},
		{RuleCoworker, 2},
		{RuleNeighbor, 3},
		{RuleSameAddress, 4},
		{RuleLastName | RuleNeighbor, 5},
		{RuleLastName | RuleSameAddress, 6},
		{RuleLastName | RuleSameAddress | RuleNeighbor, 7},
	}
	for _, c := range cases {
		if got := tax.TypeOf(c.mask); got != c.id {
			t.Errorf("TypeOf(%v) = %d, want %d", c.mask, got, c.id)
		}
	}
	if tax.NumTypes() != 7 {
		t.Fatalf("NumTypes = %d, want 7", tax.NumTypes())
	}
}

// maskOf is the rule mask registered for a type ID.
func maskOf(t *Taxonomy, id int) (Rule, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	m, ok := t.byID[id]
	return m, ok
}

func TestTaxonomyDynamicRegistration(t *testing.T) {
	tax := NewTable1Taxonomy()
	novel := RuleCoworker | RuleNeighbor // not in Table 1
	id := tax.TypeOf(novel)
	if id != 8 {
		t.Fatalf("first novel mask got id %d, want 8", id)
	}
	if again := tax.TypeOf(novel); again != id {
		t.Fatal("repeated mask should return the same id")
	}
	if tax.NumTypes() != 8 {
		t.Fatalf("NumTypes = %d, want 8", tax.NumTypes())
	}
	if m, ok := maskOf(tax, 8); !ok || m != novel {
		t.Fatal("id 8 should map back to the novel mask")
	}
	ids := tax.IDs()
	if len(ids) != 8 || ids[0] != 1 || ids[7] != 8 {
		t.Fatalf("IDs = %v", ids)
	}
}

func TestTaxonomyPanicsOnZeroMask(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("TypeOf(0) should panic")
		}
	}()
	NewTable1Taxonomy().TypeOf(0)
}

func TestBackgroundAccessesAreBenign(t *testing.T) {
	g, eng := buildPipeline(t, 5, 500)
	for _, ev := range g.Day(0) {
		if ev.EmployeeID >= bgE || ev.PatientID >= bgP {
			continue // planted traffic
		}
		mask, err := eng.EvaluateRules(ev)
		if err != nil {
			t.Fatal(err)
		}
		if mask != 0 {
			t.Fatalf("background access %+v triggered %v", ev, mask)
		}
	}
}

func TestPlantedAccessesTriggerExactKind(t *testing.T) {
	g, eng := buildPipeline(t, 8, 0)
	// Employee IDs are appended kind-by-kind in blocks of PairsPerKind.
	kindOf := func(employeeID int) int { return (employeeID - bgE) / 8 }
	seen := map[int]int{}
	for d := 0; d < 5; d++ {
		for _, ev := range g.Day(d) {
			if ev.EmployeeID < bgE {
				continue // background traffic (covered by the benign test)
			}
			a, ok, err := eng.Evaluate(ev)
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				t.Fatalf("planted access %+v produced no alert", ev)
			}
			wantType := kindOf(ev.EmployeeID) + 1 // Table 1 IDs are 1-based
			if a.Type != wantType {
				t.Fatalf("planted access for kind %d typed as %d (%v)",
					wantType, a.Type, a.Rules)
			}
			seen[a.Type]++
		}
	}
	for id := 1; id <= 7; id++ {
		if seen[id] == 0 {
			t.Errorf("no alerts of type %d observed across 5 days", id)
		}
	}
}

func TestScanPreservesOrderAndMetadata(t *testing.T) {
	g, eng := buildPipeline(t, 5, 200)
	day := g.Day(2)
	alerts, err := eng.Scan(day)
	if err != nil {
		t.Fatal(err)
	}
	if len(alerts) == 0 {
		t.Fatal("expected alerts from planted traffic")
	}
	for i := 1; i < len(alerts); i++ {
		if alerts[i].Time < alerts[i-1].Time {
			t.Fatal("scan output not time-ordered")
		}
	}
	for _, a := range alerts {
		if a.Day != 2 {
			t.Fatalf("alert day %d, want 2", a.Day)
		}
		if a.Type < 1 || a.Type > 7 {
			t.Fatalf("unexpected type %d from default generator", a.Type)
		}
		if a.Time < 0 || a.Time >= 24*time.Hour {
			t.Fatalf("alert time %v out of range", a.Time)
		}
	}
}

func TestEvaluateRejectsOutOfRangeIDs(t *testing.T) {
	_, eng := buildPipeline(t, 2, 0)
	if _, err := eng.EvaluateRules(emr.AccessEvent{EmployeeID: -1}); err == nil {
		t.Error("negative employee should error")
	}
	if _, err := eng.EvaluateRules(emr.AccessEvent{EmployeeID: 0, PatientID: 1 << 30}); err == nil {
		t.Error("huge patient id should error")
	}
	if _, _, err := eng.Evaluate(emr.AccessEvent{EmployeeID: 1 << 30}); err == nil {
		t.Error("Evaluate should propagate range errors")
	}
	if _, err := eng.Scan([]emr.AccessEvent{{EmployeeID: 1 << 30}}); err == nil {
		t.Error("Scan should propagate range errors")
	}
}

func TestTaxonomyConcurrentRegistration(t *testing.T) {
	// The taxonomy promises concurrency safety; hammer it from many
	// goroutines registering overlapping mask sets and verify the final
	// mapping is a bijection.
	tax := NewTable1Taxonomy()
	var wg sync.WaitGroup
	masks := []Rule{
		RuleLastName, RuleCoworker, RuleNeighbor, RuleSameAddress,
		RuleLastName | RuleCoworker,
		RuleCoworker | RuleNeighbor,
		RuleCoworker | RuleSameAddress,
		RuleLastName | RuleCoworker | RuleNeighbor,
		RuleLastName | RuleCoworker | RuleSameAddress | RuleNeighbor,
	}
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				m := masks[i%len(masks)]
				id := tax.TypeOf(m)
				got, ok := maskOf(tax, id)
				if !ok || got != m {
					t.Errorf("mask %v mapped to id %d which maps back to %v (ok=%v)", m, id, got, ok)
					return
				}
			}
		}()
	}
	wg.Wait()
	// Each distinct mask got exactly one ID.
	seen := map[int]bool{}
	for _, m := range masks {
		id := tax.TypeOf(m)
		if seen[id] {
			t.Fatalf("id %d assigned to two masks", id)
		}
		seen[id] = true
	}
}

func TestDailyTypeCountsMatchTable1(t *testing.T) {
	// End-to-end calibration check through the real rules engine.
	g, eng := buildPipeline(t, 40, 100)
	want := emr.Table1Volumes()
	days := 30
	totals := make([]float64, 8)
	for d := 0; d < days; d++ {
		alerts, err := eng.Scan(g.Day(d))
		if err != nil {
			t.Fatal(err)
		}
		for _, a := range alerts {
			totals[a.Type]++
		}
	}
	for id := 1; id <= 7; id++ {
		mean := totals[id] / float64(days)
		mu := want[id-1].Mu
		tol := 5*want[id-1].Sigma/5.477 + 2 // ≈ 5·σ/√30 + slack
		if mean < mu-tol || mean > mu+tol {
			t.Errorf("type %d: observed daily mean %.2f, want %.2f ± %.2f", id, mean, mu, tol)
		}
	}
}
